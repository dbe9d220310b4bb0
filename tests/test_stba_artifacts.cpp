// Pins STBA's on-disk artifacts: every alignment_*.txt, triage_*.json (its
// build stamp blanked) and excerpt_*.vcd a campaign writes with an out
// dir, plus the stable stba.* metrics and regress.triages, hashed over the
// shipped configs x {t02, t05}, under each of the paper's five BCA faults
// (the C3 experiment) and the C3 bench's opcode_corrupt_on_busy. A second
// digest covers the txn_in_flight section of one faulted pair run with the
// transaction tracer on. The expected digests were taken from the analyzer
// that walked a diverging pair twice (once to compare, once to triage); a
// change to any artifact byte or counter moves them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.h"
#include "common/sha256.h"
#include "metrics_guard.h"
#include "regress/config_file.h"
#include "regress/runner.h"
#include "verif/tests.h"

namespace crve {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// A triage report without the build stamp it leads with.
std::string without_build_stamp(std::string text) {
  const std::string stamp = "\"build\": " + build_info_json("  ");
  const auto at = text.find(stamp);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) text.erase(at, stamp.size());
  return text;
}

// Every STBA artifact under `dir`, in path order: the relative path, then
// the content.
void hash_artifacts(Sha256& h, const fs::path& dir, bool triage_only) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    const bool triage = starts_with(name, "triage_") && ends_with(name, ".json");
    const bool other =
        (starts_with(name, "alignment_") && ends_with(name, ".txt")) ||
        (starts_with(name, "excerpt_") && ends_with(name, ".vcd"));
    if (triage || (other && !triage_only)) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    const std::string rel = fs::relative(f, dir).generic_string();
    const std::string text = slurp(f);
    h.update(rel + "\n");
    h.update(starts_with(f.filename().string(), "triage_")
                 ? without_build_stamp(text)
                 : text);
  }
}

// The stable stba.* counters and histograms, and regress.triages.
void hash_metrics(Sha256& h) {
  const auto snap = obs::registry().snapshot(/*include_timing=*/false);
  for (const auto& [name, value] : snap.counters) {
    if (starts_with(name, "stba.") || name == "regress.triages") {
      h.update(name + "=" + std::to_string(value) + "\n");
    }
  }
  for (const auto& [name, value] : snap.histograms) {
    if (!starts_with(name, "stba.")) continue;
    h.update(name + " count=" + std::to_string(value.count) +
             " sum=" + std::to_string(value.sum) + "\n");
  }
}

regress::RunPlan slice_plan(const fs::path& dir) {
  regress::RunPlan plan;
  plan.tests = {verif::t02_random_all_opcodes(), verif::t05_chunked_traffic()};
  plan.seeds = {3};
  plan.jobs = 2;
  plan.out_dir = dir.string();
  return plan;
}

TEST(StbaArtifacts, MatchThePinnedDigestsUnderEachC3Fault) {
  struct Case {
    const char* fault;
    bool bca::Faults::*sw;
    const char* digest;
  };
  const Case cases[] = {
      {"lru_stale_on_chunk", &bca::Faults::lru_stale_on_chunk,
       "76f505348afcbb89c81fadb549a4cd95641761792d950ffd8883abc396071c75"},
      {"grant_during_lock", &bca::Faults::grant_during_lock,
       "f52d47a5d5c91895196cdbdf04f3e61d0e523ad5c7f3df7a201e55b604d2e159"},
      {"byte_enable_dropped", &bca::Faults::byte_enable_dropped,
       "f9f1085b1622b6107ddcd2aad36d1c67e1da4c88fff3e5b705d6b1f62136d03d"},
      {"response_src_swap", &bca::Faults::response_src_swap,
       "95c49fb52e351374c4fafdc5ca1d8c077972e74e8753f2829ba91b386c28a646"},
      {"size_conv_endianness", &bca::Faults::size_conv_endianness,
       "ae84dcbc1bb7a88ff0761845292f7a36cacf0bd1494e478d0a62b5bac4ca673e"},
      // The C3 bench's stand-in for size_conv_endianness, which no
      // shipped config exercises.
      {"opcode_corrupt_on_busy", &bca::Faults::opcode_corrupt_on_busy,
       "aeef33ef68daef16924e340a490a02c928344a5f3975f2f54415688e95551eb3"},
  };
  const auto configs = regress::configs_from_dir(CRVE_SOURCE_DIR "/configs");
  const fs::path dir = fs::temp_directory_path() / "crve_stba_artifacts_test";
  for (const Case& c : cases) {
    fs::remove_all(dir);
    test::MetricsGuard metrics;
    regress::RunPlan plan = slice_plan(dir);
    plan.faults.*c.sw = true;
    regress::Regression::run_matrix(configs, plan);
    Sha256 h;
    hash_artifacts(h, dir, /*triage_only=*/false);
    hash_metrics(h);
    EXPECT_EQ(h.digest_hex(), c.digest) << c.fault;
  }
  fs::remove_all(dir);
}

// With the txn tracer on, each triage report also names the transactions
// in flight on each view at every window.
TEST(StbaArtifacts, TxnInFlightSectionMatchesThePinnedDigest) {
  const fs::path dir = fs::temp_directory_path() / "crve_stba_txn_test";
  fs::remove_all(dir);
  regress::RunPlan plan = slice_plan(dir);
  plan.cfg = regress::configs_from_dir(CRVE_SOURCE_DIR "/configs").front();
  plan.tests = {verif::t05_chunked_traffic()};
  plan.faults.grant_during_lock = true;
  plan.txn_trace_out = (dir / "txn.json").string();
  regress::Regression::run(plan);
  const std::string triage =
      slurp(dir / "triage_t05_chunked_traffic_s3.json");
  EXPECT_NE(triage.find("\"txn_in_flight\""), std::string::npos);
  Sha256 h;
  hash_artifacts(h, dir, /*triage_only=*/true);
  EXPECT_EQ(h.digest_hex(),
            "9eecb6a8b8db212f2aacb351811a412a1edeab876437cd284252c32c32327134");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace crve

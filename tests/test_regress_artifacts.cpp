// The regression tool's on-disk artefacts: per-run verification reports,
// VCD dumps, alignment reports and the campaign summary — the files the
// paper's tool generates "for each test file associated with the test seed".
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json.h"
#include "regress/runner.h"
#include "verif/tests.h"

namespace crve {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(RegressArtifacts, AllFilesWrittenAndWellFormed) {
  const fs::path dir = fs::temp_directory_path() / "crve_artifacts_test";
  fs::remove_all(dir);

  regress::RunPlan plan;
  plan.cfg.n_initiators = 2;
  plan.cfg.n_targets = 2;
  plan.cfg.bus_bytes = 4;
  plan.tests = {verif::t02_random_all_opcodes()};
  plan.seeds = {5};
  plan.n_transactions = 20;
  plan.out_dir = dir.string();
  const auto res = regress::Regression::run(plan);
  ASSERT_TRUE(res.signed_off) << res.summary();

  // Expected artefacts per (test, seed): two VCDs, two reports, one
  // alignment report; plus the campaign summary.
  const char* expected[] = {
      "t02_random_all_opcodes_s5_rtl.vcd",
      "t02_random_all_opcodes_s5_bca.vcd",
      "report_t02_random_all_opcodes_s5_rtl.txt",
      "report_t02_random_all_opcodes_s5_bca.txt",
      "alignment_t02_random_all_opcodes_s5.txt",
      "summary.txt",
  };
  for (const char* name : expected) {
    EXPECT_TRUE(fs::exists(dir / name)) << name;
  }

  // The VCDs parse and cover the same cycle span.
  const auto rtl = vcd::Trace::parse_file(
      (dir / "t02_random_all_opcodes_s5_rtl.vcd").string());
  const auto bca = vcd::Trace::parse_file(
      (dir / "t02_random_all_opcodes_s5_bca.vcd").string());
  EXPECT_EQ(rtl.max_time(), bca.max_time());
  EXPECT_TRUE(rtl.find("tb.init0.req").has_value());

  // The verification report carries the expected sections.
  const std::string report =
      slurp(dir / "report_t02_random_all_opcodes_s5_rtl.txt");
  EXPECT_NE(report.find("checker violations: 0"), std::string::npos);
  EXPECT_NE(report.find("scoreboard errors: 0"), std::string::npos);
  EXPECT_NE(report.find("functional coverage:"), std::string::npos);
  EXPECT_NE(report.find("port utilisation"), std::string::npos);

  // The alignment report states the sign-off verdict.
  const std::string align =
      slurp(dir / "alignment_t02_random_all_opcodes_s5.txt");
  EXPECT_NE(align.find("SIGNED OFF"), std::string::npos);

  const std::string summary = slurp(dir / "summary.txt");
  EXPECT_NE(summary.find("sign-off:   YES"), std::string::npos);

  fs::remove_all(dir);
}

// The triage excerpts must show the first divergence at any window width,
// the widest included: there the excerpt's end saturates instead of
// wrapping to just before the divergence.
TEST(RegressArtifacts, TriageExcerptsCoverDivergenceAtWidestWindow) {
  const fs::path dir = fs::temp_directory_path() / "crve_triage_window_test";
  fs::remove_all(dir);

  regress::RunPlan plan;
  plan.cfg.n_initiators = 3;
  plan.cfg.n_targets = 2;
  plan.cfg.arb = stbus::ArbPolicy::kLru;
  plan.tests = {verif::t05_chunked_traffic()};
  plan.seeds = {3};
  plan.n_transactions = 60;
  plan.faults.grant_during_lock = true;
  plan.alignment_threshold = 1.0;  // triage any divergence
  plan.triage_window = std::numeric_limits<std::uint64_t>::max();
  plan.out_dir = dir.string();
  const auto res = regress::Regression::run(plan);
  ASSERT_LT(res.min_alignment, 1.0) << res.summary();

  const std::string stem = "t05_chunked_traffic_s3";
  const json::Value tri = json::parse(slurp(dir / ("triage_" + stem + ".json")));
  const double first = tri.number_or("first_divergence", -1.0);
  ASSERT_GE(first, 0.0);
  for (const char* view : {"rtl", "bca"}) {
    const std::string excerpt =
        slurp(dir / ("excerpt_" + stem + "_" + view + ".vcd"));
    const auto at = excerpt.find("$comment window ");
    ASSERT_NE(at, std::string::npos) << view;
    std::istringstream window(excerpt.substr(at + 16));
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    window >> begin >> end;
    EXPECT_LE(static_cast<double>(begin), first) << view;
    EXPECT_GE(static_cast<double>(end), first) << view;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace crve

// Pins the environment's diagnostics: every field of a RunResult that the
// passive environment computes — checker violations, scoreboard and
// reference-model messages, the coverage digest, port utilisation, the
// traffic mix — plus the cycle and evaluation counts, hashed over the
// shipped configs x the CATG suite on the RTL view and on the BCA view,
// clean and under each bca::Faults switch. The expected digests were taken
// from the environment before its per-packet buffers, quiet port-cycles
// and coverage bin tables went in; a change to any diagnostic text, count
// or order moves them.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "regress/config_file.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using verif::ModelKind;

// Every switch of bca::Faults, one at a time.
std::vector<std::pair<std::string, bca::Faults>> fault_cases() {
  std::vector<std::pair<std::string, bca::Faults>> out;
  out.emplace_back("clean", bca::Faults{});
  const auto add = [&out](const char* name, bool bca::Faults::*sw) {
    bca::Faults f;
    f.*sw = true;
    out.emplace_back(name, f);
  };
  add("lru_stale_on_chunk", &bca::Faults::lru_stale_on_chunk);
  add("grant_during_lock", &bca::Faults::grant_during_lock);
  add("byte_enable_dropped", &bca::Faults::byte_enable_dropped);
  add("response_src_swap", &bca::Faults::response_src_swap);
  add("size_conv_endianness", &bca::Faults::size_conv_endianness);
  add("opcode_corrupt_on_busy", &bca::Faults::opcode_corrupt_on_busy);
  add("eop_one_cell_early", &bca::Faults::eop_one_cell_early);
  add("priority_register_ignored", &bca::Faults::priority_register_ignored);
  return out;
}

// One line per diagnostic field, in a fixed order.
std::string diagnostics(const verif::RunResult& r) {
  std::string s;
  const auto field = [&s](const std::string& name, const auto& v) {
    s += name + "=" + std::to_string(v) + "\n";
  };
  field("completed", static_cast<int>(r.completed));
  field("cycles", r.cycles);
  field("evaluations", r.evaluations);
  field("checker_violations", r.checker_violations);
  field("scoreboard_errors", r.scoreboard_errors);
  field("reference_mismatches", r.reference_mismatches);
  field("coverage_percent", r.coverage_percent);
  field("coverage_digest", r.coverage_digest);
  for (const auto& v : r.violations) {
    s += "violation " + std::to_string(v.cycle) + " " + v.port + " " +
         v.rule + " " + v.message + "\n";
  }
  for (const auto& e : r.sb_errors) {
    s += "scoreboard " + std::to_string(e.cycle) + " " + e.where + " " +
         e.message + "\n";
  }
  for (const auto& e : r.ref_errors) {
    s += "reference " + std::to_string(e.cycle) + " " + e.where + " " +
         e.message + "\n";
  }
  for (const auto& u : r.utilisation) {
    s += "util " + u.port + " " + std::to_string(u.busy_cycles) + " " +
         std::to_string(u.request_packets) + " " +
         std::to_string(u.response_packets) + "\n";
  }
  field("request_packets", r.request_packets);
  field("response_packets", r.response_packets);
  for (const auto n : r.request_opcode_cells) field("opc_cells", n);
  return s;
}

// Digest of every run on `cfg`: the RTL view once per test, the BCA view
// per test and fault case.
std::string config_digest(const stbus::NodeConfig& cfg) {
  Sha256 h;
  for (verif::TestSpec spec : verif::catg_test_suite()) {
    spec.n_transactions = 20;
    verif::TestbenchOptions opts;
    opts.seed = 3;
    opts.max_cycles = 5000;
    opts.model = ModelKind::kRtl;
    h.update("RTL " + spec.name + "\n");
    h.update(diagnostics(verif::Testbench(cfg, spec, opts).run()));
    for (const auto& [name, faults] : fault_cases()) {
      opts.model = ModelKind::kBca;
      opts.faults = faults;
      h.update("BCA " + spec.name + " " + name + "\n");
      h.update(diagnostics(verif::Testbench(cfg, spec, opts).run()));
    }
  }
  return h.digest_hex();
}

TEST(EnvironmentDiagnostics, MatchThePinnedDigestsOnShippedConfigs) {
  const std::map<std::string, std::string> expected = {
      {"node_t2_xbar_lru",
       "4e63ef56b301d011d7cd1080606ad64e78c32a678c3eab708ed4167e10ef41b0"},
      {"node_t3_shared_latency",
       "5f33c6b57921d8fd5cbd9a6e9d9e8b05dd54d79a561549fb157620a23acf2122"},
      {"node_t2_wide_prog",
       "a8f3ecb0330bc092654ceb45212059e3f26c7788123797253b3831ea945ffbae"},
  };
  const auto configs = regress::configs_from_dir(CRVE_SOURCE_DIR "/configs");
  ASSERT_EQ(configs.size(), expected.size());
  for (const auto& cfg : configs) {
    const auto it = expected.find(cfg.name);
    ASSERT_NE(it, expected.end()) << cfg.name;
    EXPECT_EQ(config_digest(cfg), it->second) << cfg.name;
  }
}

}  // namespace
}  // namespace crve

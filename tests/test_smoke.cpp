// End-to-end smoke tests: the full environment around both DUT views.
#include <gtest/gtest.h>

#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using verif::ModelKind;
using verif::RunResult;
using verif::Testbench;
using verif::TestbenchOptions;

stbus::NodeConfig small_cfg() {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.type = stbus::ProtocolType::kType2;
  cfg.arch = stbus::Architecture::kFullCrossbar;
  cfg.arb = stbus::ArbPolicy::kLru;
  return cfg;
}

RunResult run(ModelKind model, const verif::TestSpec& spec,
              std::uint64_t seed = 7) {
  TestbenchOptions opts;
  opts.model = model;
  opts.seed = seed;
  Testbench tb(small_cfg(), spec, opts);
  return tb.run();
}

TEST(Smoke, DirectedWriteReadRtl) {
  const RunResult r = run(ModelKind::kRtl, verif::t01_basic_write_read());
  EXPECT_TRUE(r.completed) << "cycles=" << r.cycles;
  EXPECT_EQ(r.checker_violations, 0u)
      << (r.violations.empty() ? "" : r.violations.front().rule + ": " +
                                          r.violations.front().message);
  EXPECT_EQ(r.scoreboard_errors, 0u)
      << (r.sb_errors.empty() ? "" : r.sb_errors.front().message);
}

TEST(Smoke, DirectedWriteReadBca) {
  const RunResult r = run(ModelKind::kBca, verif::t01_basic_write_read());
  EXPECT_TRUE(r.completed) << "cycles=" << r.cycles;
  EXPECT_EQ(r.checker_violations, 0u)
      << (r.violations.empty() ? "" : r.violations.front().rule + ": " +
                                          r.violations.front().message);
  EXPECT_EQ(r.scoreboard_errors, 0u)
      << (r.sb_errors.empty() ? "" : r.sb_errors.front().message);
}

TEST(Smoke, RandomRtl) {
  const RunResult r = run(ModelKind::kRtl, verif::t02_random_all_opcodes());
  EXPECT_TRUE(r.passed())
      << "cycles=" << r.cycles << " viol=" << r.checker_violations
      << " sb=" << r.scoreboard_errors
      << (r.violations.empty() ? "" : " first=" + r.violations.front().rule +
                                          ": " +
                                          r.violations.front().message)
      << (r.sb_errors.empty() ? "" : " sb_first=" +
                                         r.sb_errors.front().message);
}

TEST(Smoke, RandomBcaMatchesRtlCoverage) {
  const RunResult rtl = run(ModelKind::kRtl, verif::t02_random_all_opcodes());
  const RunResult bca = run(ModelKind::kBca, verif::t02_random_all_opcodes());
  EXPECT_TRUE(rtl.passed());
  EXPECT_TRUE(bca.passed());
  // Same test, same seed: identical functional coverage on both views.
  EXPECT_EQ(rtl.coverage_digest, bca.coverage_digest);
  EXPECT_EQ(rtl.cycles, bca.cycles);
}

// Per-port utilisation: every port carries traffic, and request packets are
// conserved across the node.
TEST(Utilisation, ReportedPerPort) {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 40;
  verif::Testbench tb(cfg, spec, {});
  const auto r = tb.run();
  ASSERT_EQ(r.utilisation.size(), 4u);  // 2 initiator + 2 target ports
  for (const auto& u : r.utilisation) {
    EXPECT_GT(u.busy_cycles, 0u) << u.port;
    EXPECT_LT(u.busy_cycles, r.cycles) << u.port;
  }
  // Conservation: packets into targets == packets out of initiators.
  std::uint64_t init_req = 0, targ_req = 0;
  for (const auto& u : r.utilisation) {
    if (u.port.rfind("init", 0) == 0) init_req += u.request_packets;
    if (u.port.rfind("targ", 0) == 0) targ_req += u.request_packets;
  }
  EXPECT_EQ(init_req, targ_req);  // t02 aims only at mapped addresses
}

}  // namespace
}  // namespace crve

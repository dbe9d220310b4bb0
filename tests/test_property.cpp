// Property sweeps across the node configuration space: for a matrix of
// (type, architecture, arbitration, width, port counts), the full random
// test must pass on both views with identical coverage and 100% alignment.
// This is the repository's strongest invariant — the BCA and RTL views are
// independent implementations, so any contract disagreement surfaces here.
#include <gtest/gtest.h>

#include <sstream>

#include "param_label.h"
#include "regress/runner.h"
#include "verif/tests.h"

namespace crve {
namespace {

struct SweepParam {
  stbus::ProtocolType type;
  stbus::Architecture arch;
  stbus::ArbPolicy arb;
  int bus_bytes;
  int n_init;
  int n_targ;
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  test::print_zero_padded(p, os, &SweepParam::type, &SweepParam::arch,
                          &SweepParam::arb, &SweepParam::bus_bytes,
                          &SweepParam::n_init, &SweepParam::n_targ);
}

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::ostringstream os;
  os << "T" << static_cast<int>(p.type) << "_"
     << (p.arch == stbus::Architecture::kSharedBus
             ? "shared"
             : p.arch == stbus::Architecture::kFullCrossbar ? "full"
                                                            : "partial")
     << "_" << to_string(p.arb) << "_" << p.bus_bytes * 8 << "b_"
     << p.n_init << "x" << p.n_targ;
  std::string s = os.str();
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class ConfigSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConfigSweep, BothViewsAlignedWithIdenticalCoverage) {
  const auto& p = GetParam();
  regress::RunPlan plan;
  plan.cfg.n_initiators = p.n_init;
  plan.cfg.n_targets = p.n_targ;
  plan.cfg.bus_bytes = p.bus_bytes;
  plan.cfg.type = p.type;
  plan.cfg.arch = p.arch;
  plan.cfg.arb = p.arb;
  plan.tests = {verif::t02_random_all_opcodes()};
  plan.seeds = {17};
  plan.n_transactions = 40;
  plan.max_cycles = 100000;
  const auto res = regress::Regression::run(plan);
  EXPECT_TRUE(res.rtl_passed) << res.summary();
  EXPECT_TRUE(res.bca_passed) << res.summary();
  EXPECT_TRUE(res.coverage_match) << res.summary();
  EXPECT_DOUBLE_EQ(res.min_alignment, 1.0) << res.summary();
}

std::vector<SweepParam> sweep_params() {
  using stbus::ArbPolicy;
  using stbus::Architecture;
  using stbus::ProtocolType;
  std::vector<SweepParam> out;
  // Architectures x types at a fixed medium shape.
  for (auto type : {ProtocolType::kType2, ProtocolType::kType3}) {
    for (auto arch :
         {Architecture::kSharedBus, Architecture::kFullCrossbar,
          Architecture::kPartialCrossbar}) {
      out.push_back({type, arch, ArbPolicy::kLru, 4, 3, 3});
    }
  }
  // All arbitration policies.
  for (auto arb : {ArbPolicy::kFixedPriority, ArbPolicy::kRoundRobin,
                   ArbPolicy::kLatencyBased, ArbPolicy::kBandwidthLimited,
                   ArbPolicy::kProgrammable}) {
    out.push_back({ProtocolType::kType2, Architecture::kFullCrossbar, arb,
                   4, 3, 2});
  }
  // Width sweep 8..256 bits.
  for (int bus : {1, 2, 8, 16, 32}) {
    out.push_back({ProtocolType::kType2, Architecture::kFullCrossbar,
                   ArbPolicy::kRoundRobin, bus, 2, 2});
  }
  // Port-count extremes.
  out.push_back({ProtocolType::kType3, Architecture::kFullCrossbar,
                 ArbPolicy::kLru, 4, 1, 1});
  out.push_back({ProtocolType::kType2, Architecture::kSharedBus,
                 ArbPolicy::kFixedPriority, 4, 8, 4});
  out.push_back({ProtocolType::kType3, Architecture::kPartialCrossbar,
                 ArbPolicy::kLatencyBased, 8, 6, 6});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ConfigSweep,
                         ::testing::ValuesIn(sweep_params()), param_name);

// The full 12-test CATG suite on one representative config per type.
class SuiteSweep : public ::testing::TestWithParam<stbus::ProtocolType> {};

TEST_P(SuiteSweep, AllTwelveTestsSignOff) {
  regress::RunPlan plan;
  plan.cfg.n_initiators = 3;
  plan.cfg.n_targets = 2;
  plan.cfg.bus_bytes = 4;
  plan.cfg.type = GetParam();
  plan.cfg.arch = stbus::Architecture::kFullCrossbar;
  plan.cfg.arb = stbus::ArbPolicy::kLru;
  plan.seeds = {23};
  plan.n_transactions = 30;
  plan.max_cycles = 100000;
  const auto res = regress::Regression::run(plan);  // full suite by default
  EXPECT_TRUE(res.signed_off) << res.summary();
  EXPECT_EQ(res.outcomes.size(), 24u);  // 12 tests x 2 views
}

INSTANTIATE_TEST_SUITE_P(Types, SuiteSweep,
                         ::testing::Values(stbus::ProtocolType::kType2,
                                           stbus::ProtocolType::kType3),
                         [](const auto& info) {
                           return "T" + std::to_string(
                                            static_cast<int>(info.param));
                         });

// Seed stability: distinct seeds produce different traffic but every seed
// signs off.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RandomTestSignsOff) {
  regress::RunPlan plan;
  plan.cfg.n_initiators = 2;
  plan.cfg.n_targets = 2;
  plan.cfg.bus_bytes = 4;
  plan.tests = {verif::t02_random_all_opcodes()};
  plan.seeds = {GetParam()};
  plan.n_transactions = 30;
  const auto res = regress::Regression::run(plan);
  EXPECT_TRUE(res.signed_off) << res.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace crve

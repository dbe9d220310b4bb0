// Steady-state allocation test: once traffic is idle, a request is held
// ungranted, or complete transactions flow after a warm-up, a simulated
// cycle of either view inside the full environment (monitors, protocol
// checkers, scoreboard, coverage, reference model) performs no heap
// allocation. Counts every global operator new, so it is its own
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "verif/testbench.h"
#include "verif/tests.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacement pair is malloc/free; GCC cannot see that operator new is
// replaced and flags free() on its result once the calls are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace crve {
namespace {

using verif::ModelKind;

// One C2 shape: Type3 full crossbar under LRU arbitration.
stbus::NodeConfig c2_shape() {
  stbus::NodeConfig cfg;
  cfg.name = "node";
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.type = stbus::ProtocolType::kType3;
  cfg.arch = stbus::Architecture::kFullCrossbar;
  cfg.arb = stbus::ArbPolicy::kLru;
  return cfg;
}

// The C2 partial-crossbar shape: four targets in two shared groups.
stbus::NodeConfig partial_xbar_shape() {
  stbus::NodeConfig cfg = c2_shape();
  cfg.n_targets = 4;
  cfg.arch = stbus::Architecture::kPartialCrossbar;
  return cfg;
}

verif::TestbenchOptions full_environment(ModelKind model) {
  verif::TestbenchOptions opts;
  opts.model = model;
  opts.seed = 5;
  opts.enable_checkers = true;
  opts.enable_scoreboard = true;
  opts.enable_coverage = true;
  opts.enable_reference_model = true;
  opts.enable_monitors = true;
  return opts;
}

// Allocations made while stepping `cycles` cycles.
std::uint64_t allocations_over(verif::Testbench& tb, int cycles) {
  const std::uint64_t before = g_allocations.load();
  tb.ctx().step(cycles);
  return g_allocations.load() - before;
}

void expect_idle_cycles_allocate_nothing(const stbus::NodeConfig& shape,
                                         ModelKind model) {
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 30;
  verif::Testbench tb(shape, spec, full_environment(model));
  const stbus::NodeConfig& cfg = tb.config();
  auto drained = [&] {
    for (int i = 0; i < cfg.n_initiators; ++i) {
      if (!tb.initiator(i).done()) return false;
    }
    for (int t = 0; t < cfg.n_targets; ++t) {
      if (!tb.target(t).idle()) return false;
    }
    return true;
  };
  while (!drained()) {
    ASSERT_LT(tb.ctx().cycle(), 20000u) << "traffic did not drain";
    tb.ctx().step();
  }
  tb.ctx().step(8);  // last response cells leave the pipeline
  EXPECT_EQ(allocations_over(tb, 500), 0u);
  EXPECT_TRUE(tb.run().passed());
}

void expect_held_request_cycles_allocate_nothing(
    const stbus::NodeConfig& shape, ModelKind model) {
  // Targets never raise gnt: each target's first cell parks in the node,
  // and every later request to it waits ungranted at its initiator port.
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.target = [](const stbus::NodeConfig&, int) {
    verif::TargetProfile p;
    p.gnt_stall_permille = 1000;
    return p;
  };
  verif::Testbench tb(shape, spec, full_environment(model));
  tb.ctx().step(100);
  const stbus::NodeConfig& cfg = tb.config();
  int held = 0;
  for (int i = 0; i < cfg.n_initiators; ++i) {
    const auto& p = tb.initiator_monitor(i).pins();
    if (p.req.read() && !p.gnt.read()) ++held;
  }
  ASSERT_EQ(held, cfg.n_initiators);
  // Well inside the checkers' 2000-cycle starvation limit.
  EXPECT_EQ(allocations_over(tb, 1000), 0u);
}

void expect_steady_traffic_allocates_nothing(stbus::NodeConfig shape,
                                             ModelKind model) {
  // Loads, stores and both atomics, each initiator confined to one 64-byte
  // window per target: warm-up then writes every memory line the target
  // BFMs and the reference model will hold, and grows every queue to its
  // working depth. On the 4-byte bus every packet is one cell each way, so
  // each reused buffer has held its longest packet after its first use
  // (buffers grow to the longest packet they meet). The transaction budget
  // outlasts the test.
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 1000000;
  spec.profile = [](const stbus::NodeConfig& cfg, int) {
    verif::InitiatorProfile p;
    for (const auto& r : cfg.address_map) {
      p.windows.push_back({r.base, 64, r.target});
    }
    p.opcode_weights.assign(stbus::kNumOpcodes, 0);
    for (const auto opc : {stbus::Opcode::kLd4, stbus::Opcode::kSt4,
                           stbus::Opcode::kRmw4, stbus::Opcode::kSwap4}) {
      p.opcode_weights[static_cast<std::size_t>(opc)] = 1;
    }
    p.chunk_permille = 50;
    p.idle_permille = 250;
    return p;
  };
  for (const auto type :
       {stbus::ProtocolType::kType2, stbus::ProtocolType::kType3}) {
    shape.type = type;
    verif::Testbench tb(shape, spec, full_environment(model));
    const stbus::NodeConfig& cfg = tb.config();
    // Long enough for the target-side queues to reach the depth the
    // initiators' outstanding limits allow.
    tb.ctx().step(20000);
    std::vector<int> completed;
    for (int i = 0; i < cfg.n_initiators; ++i) {
      completed.push_back(tb.initiator(i).completed());
    }
    std::vector<std::uint64_t> served;
    for (int t = 0; t < cfg.n_targets; ++t) {
      served.push_back(tb.target(t).stats().packets);
    }
    EXPECT_EQ(allocations_over(tb, 2000), 0u) << stbus::to_string(type);
    // The window held whole transactions on every port: issued, granted,
    // served by a target and answered.
    for (int i = 0; i < cfg.n_initiators; ++i) {
      EXPECT_GT(tb.initiator(i).completed(),
                completed[static_cast<std::size_t>(i)] + 10)
          << "init" << i;
    }
    for (int t = 0; t < cfg.n_targets; ++t) {
      EXPECT_GT(tb.target(t).stats().packets,
                served[static_cast<std::size_t>(t)] + 10)
          << "targ" << t;
    }
  }
}

class AllocFree : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllocFree, SteadyTrafficAllocatesNothing) {
  expect_steady_traffic_allocates_nothing(c2_shape(), GetParam());
}

TEST_P(AllocFree, IdleCyclesAllocateNothing) {
  expect_idle_cycles_allocate_nothing(c2_shape(), GetParam());
}

TEST_P(AllocFree, HeldRequestCyclesAllocateNothing) {
  expect_held_request_cycles_allocate_nothing(c2_shape(), GetParam());
}

// Both nodes size their per-resource state by the number of crossbar
// groups; a partial crossbar must not pay for counting them every cycle.
class AllocFreePartialXbar : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllocFreePartialXbar, IdleCyclesAllocateNothing) {
  expect_idle_cycles_allocate_nothing(partial_xbar_shape(), GetParam());
}

TEST_P(AllocFreePartialXbar, SteadyTrafficAllocatesNothing) {
  expect_steady_traffic_allocates_nothing(partial_xbar_shape(), GetParam());
}

TEST_P(AllocFreePartialXbar, HeldRequestCyclesAllocateNothing) {
  expect_held_request_cycles_allocate_nothing(partial_xbar_shape(),
                                              GetParam());
}

const auto kViews = ::testing::Values(ModelKind::kRtl, ModelKind::kBca);
std::string view_name(const ::testing::TestParamInfo<ModelKind>& info) {
  return verif::to_string(info.param);
}
INSTANTIATE_TEST_SUITE_P(Views, AllocFree, kViews, view_name);
INSTANTIATE_TEST_SUITE_P(Views, AllocFreePartialXbar, kViews, view_name);

TEST(AllocFreeConfig, NumResourcesAllocatesNothing) {
  for (const auto arch : {stbus::Architecture::kSharedBus,
                          stbus::Architecture::kFullCrossbar,
                          stbus::Architecture::kPartialCrossbar}) {
    stbus::NodeConfig cfg = c2_shape();
    cfg.n_targets = 5;
    cfg.arch = arch;
    cfg.xbar_group = {0, 0, 1, 1, 2};
    cfg.validate_and_normalize();
    const std::uint64_t before = g_allocations.load();
    const int n = cfg.num_resources();
    EXPECT_EQ(g_allocations.load() - before, 0u) << static_cast<int>(arch);
    EXPECT_EQ(n, arch == stbus::Architecture::kSharedBus      ? 1
                 : arch == stbus::Architecture::kFullCrossbar ? 5
                                                               : 3);
  }
}

}  // namespace
}  // namespace crve

// Unit tests for the simulation kernel: signal semantics, delta cycles,
// clocked/combinational process ordering, tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/context.h"
#include "sim/module.h"

namespace crve::sim {
namespace {

TEST(Signal, BoolReadWriteCommit) {
  Context ctx;
  SignalBool s(ctx, "s");
  EXPECT_FALSE(s.read());
  s.write(true);
  EXPECT_FALSE(s.read());  // not visible before commit
  ctx.initialize();
  EXPECT_TRUE(s.read());
}

TEST(Signal, U64MasksToWidth) {
  Context ctx;
  SignalU64 s(ctx, "s", 4);
  s.write(0xff);
  ctx.initialize();
  EXPECT_EQ(s.read(), 0xfu);
}

TEST(Signal, U64WidthValidated) {
  Context ctx;
  EXPECT_THROW(SignalU64(ctx, "bad", 0), std::invalid_argument);
  EXPECT_THROW(SignalU64(ctx, "bad", 65), std::invalid_argument);
}

TEST(Signal, BitsWidthEnforcedOnWrite) {
  Context ctx;
  SignalBits s(ctx, "s", 16);
  EXPECT_THROW(s.write(crve::Bits(8, 1)), std::invalid_argument);
  s.write(crve::Bits(16, 0xabcd));
  ctx.initialize();
  EXPECT_EQ(s.read().to_u64(), 0xabcdu);
}

TEST(Signal, VcdValueFormats) {
  Context ctx;
  SignalBool b(ctx, "b");
  SignalU64 u(ctx, "u", 6);
  SignalBits w(ctx, "w", 9);
  b.write(true);
  u.write(0x2a);
  w.write(crve::Bits(9, 0x155));
  ctx.initialize();
  EXPECT_EQ(b.vcd_value(), "1");
  EXPECT_EQ(u.vcd_value(), "101010");
  EXPECT_EQ(w.vcd_value(), "101010101");
}

TEST(Context, ClockedProcessSeesPreEdgeValues) {
  Context ctx;
  SignalU64 a(ctx, "a", 32);
  SignalU64 b(ctx, "b", 32);
  // Two "registers" in series: b must lag a by one cycle.
  ctx.add_clocked("a", [&] { a.write(a.read() + 1); });
  ctx.add_clocked("b", [&] { b.write(a.read()); });
  ctx.step(3);
  EXPECT_EQ(a.read(), 3u);
  EXPECT_EQ(b.read(), 2u);
}

TEST(Context, ClockedOrderDoesNotMatter) {
  // Same as above with the processes registered in the other order.
  Context ctx;
  SignalU64 a(ctx, "a", 32);
  SignalU64 b(ctx, "b", 32);
  ctx.add_clocked("b", [&] { b.write(a.read()); });
  ctx.add_clocked("a", [&] { a.write(a.read() + 1); });
  ctx.step(3);
  EXPECT_EQ(b.read(), 2u);
}

TEST(Context, CombSettlesChains) {
  Context ctx;
  SignalU64 a(ctx, "a", 8);
  SignalU64 b(ctx, "b", 8);
  SignalU64 c(ctx, "c", 8);
  ctx.add_clocked("drv", [&] { a.write(a.read() + 1); });
  ctx.add_comb("b", [&] { b.write(a.read() * 2); });
  ctx.add_comb("c", [&] { c.write(b.read() + 1); });
  ctx.step();
  EXPECT_EQ(a.read(), 1u);
  EXPECT_EQ(b.read(), 2u);
  EXPECT_EQ(c.read(), 3u);
  ctx.step();
  EXPECT_EQ(c.read(), 5u);
}

TEST(Context, CombinationalLoopDetected) {
  Context ctx;
  SignalU64 a(ctx, "a", 8);
  ctx.add_comb("osc", [&] { a.write(a.read() ^ 1); });
  EXPECT_THROW(ctx.step(), SimError);
}

TEST(Context, InitializeSettlesBeforeFirstEdge) {
  Context ctx;
  SignalU64 a(ctx, "a", 8);
  SignalU64 b(ctx, "b", 8);
  a.write(5);
  ctx.add_comb("b", [&] { b.write(a.read() + 1); });
  ctx.initialize();
  EXPECT_EQ(b.read(), 6u);
  EXPECT_EQ(ctx.cycle(), 0u);
}

TEST(Context, CycleCountsSteps) {
  Context ctx;
  ctx.step(5);
  EXPECT_EQ(ctx.cycle(), 5u);
  ctx.step();
  EXPECT_EQ(ctx.cycle(), 6u);
}

TEST(Context, EvaluationsCountProcessRuns) {
  Context ctx;
  SignalU64 a(ctx, "a", 8);
  ctx.add_clocked("p", [&] { a.write(a.read() + 1); });
  ctx.add_comb("q", [] {});
  const auto before = ctx.evaluations();
  ctx.step(10);
  EXPECT_GT(ctx.evaluations(), before + 10);
}

struct CountingTracer : Tracer {
  int samples = 0;
  std::uint64_t last_cycle = 0;
  std::vector<std::vector<int>> changed_sets;
  void sample(std::uint64_t cycle, const std::vector<SignalBase*>&,
              const std::vector<int>& changed) override {
    ++samples;
    last_cycle = cycle;
    changed_sets.push_back(changed);
  }
};

TEST(Context, TracerSampledOncePerCyclePlusInit) {
  Context ctx;
  SignalU64 a(ctx, "a", 8);
  ctx.add_clocked("p", [&] { a.write(a.read() + 1); });
  CountingTracer tr;
  ctx.attach_tracer(&tr);
  ctx.step(4);
  EXPECT_EQ(tr.samples, 5);  // initialize() + 4 steps
  EXPECT_EQ(tr.last_cycle, 4u);
}

// The changed-set reaches tracers unsorted (commit order) but never holds
// an index twice in one cycle — not even for a signal committed on several
// delta passes, or one that changes and reverts within the cycle.
class ChangedSet : public ::testing::TestWithParam<KernelKind> {};

TEST_P(ChangedSet, EachIndexAppearsOncePerCycle) {
  Context ctx;
  ctx.set_kernel(GetParam());
  SignalU64 a(ctx, "a", 8);
  SignalU64 c(ctx, "c", 8);
  SignalU64 d(ctx, "d", 8);
  SignalBool glitch(ctx, "glitch");
  ctx.add_clocked("p", [&] {
    a.write(a.read() + 3);
    a.write(a.read() + 1);  // last write wins
  });
  // Registered before its producer: the interpreter evaluates it on stale
  // `c` first, so `glitch` rises and falls again within every cycle there.
  ctx.add_comb("d", [&] {
    d.write(c.read() * 2);
    glitch.write(c.read() != ((a.read() + 1) & 0xff));
  });
  ctx.add_comb("c", [&] { c.write(a.read() + 1); });
  CountingTracer tr;
  ctx.attach_tracer(&tr);
  ctx.step(50);
  ASSERT_EQ(tr.changed_sets.size(), 51u);
  for (std::size_t cyc = 1; cyc < tr.changed_sets.size(); ++cyc) {
    std::vector<int> seen = tr.changed_sets[cyc];
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << "cycle " << cyc;
    for (const SignalBase* s : {static_cast<const SignalBase*>(&a),
                                static_cast<const SignalBase*>(&c),
                                static_cast<const SignalBase*>(&d)}) {
      EXPECT_TRUE(std::binary_search(seen.begin(), seen.end(), s->index()))
          << s->name() << " cycle " << cyc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ChangedSet,
                         ::testing::Values(KernelKind::kCompiled,
                                           KernelKind::kInterp),
                         [](const auto& info) {
                           return info.param == KernelKind::kCompiled
                                      ? "Compiled"
                                      : "Interp";
                         });

TEST(Module, HierarchicalNames) {
  Context ctx;
  Module top(ctx, "tb");
  Module child(top, "node");
  EXPECT_EQ(child.name(), "tb.node");
  EXPECT_EQ(child.sub("arb"), "tb.node.arb");
}

TEST(Context, MultipleWritesLastWins) {
  Context ctx;
  SignalU64 a(ctx, "a", 8);
  ctx.add_clocked("p", [&] {
    a.write(1);
    a.write(2);
  });
  ctx.step();
  EXPECT_EQ(a.read(), 2u);
}

}  // namespace
}  // namespace crve::sim

// Compiled-schedule kernel: levelization, elaboration-time cycle
// diagnostics, change-driven skipping, the one-pass settle contract, and
// byte-identical artifacts against the interpreter across the shipped
// configurations (the `--sim-kernel interp` escape hatch must be a pure
// performance switch, never a behaviour switch).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "regress/config_file.h"
#include "regress/runner.h"
#include "sim/context.h"
#include "sim/schedule.h"
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

TEST(Schedule, DiamondLevelizesByLongestPath) {
  // a -> {b, c} -> d over four signals: classic diamond. Ranks must come
  // out {a}, {b, c}, {d} with b/c in registration order.
  std::vector<sim::ProcNode> procs(4);
  procs[0] = {"a", {}, {0}, {}};
  procs[1] = {"b", {0}, {1}, {}};
  procs[2] = {"c", {0}, {2}, {}};
  procs[3] = {"d", {1, 2}, {3}, {}};
  const auto sched =
      sim::build_schedule(procs, 4, {"s0", "s1", "s2", "s3"});
  ASSERT_EQ(sched.n_ranks(), 3u);
  EXPECT_EQ(sched.ranks[0], (std::vector<int>{0}));
  EXPECT_EQ(sched.ranks[1], (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.ranks[2], (std::vector<int>{3}));
  // Change-driven skipping adjacency: s0's readers are b and c.
  EXPECT_EQ(sched.signal_readers[0], (std::vector<int>{1, 2}));
}

TEST(Schedule, CycleDetectedAtElaborationWithNamedPath) {
  sim::Context ctx;
  sim::SignalU64 a(ctx, "sig_a", 8);
  sim::SignalU64 b(ctx, "sig_b", 8);
  ctx.add_comb("proc_x", [&] { a.write(b.read() + 1); });
  ctx.add_comb("proc_y", [&] { b.write(a.read() + 1); });
  try {
    ctx.initialize();  // throws during elaboration, before any settling
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("combinational cycle detected at elaboration"),
              std::string::npos)
        << msg;
    // The diagnostic names the whole loop: both processes and at least one
    // mediating signal.
    EXPECT_NE(msg.find("proc_x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("proc_y"), std::string::npos) << msg;
    EXPECT_TRUE(msg.find("sig_a") != std::string::npos ||
                msg.find("sig_b") != std::string::npos)
        << msg;
  }
}

TEST(Schedule, SelfWriteInOwnReadSetIsACycle) {
  sim::Context ctx;
  sim::SignalU64 a(ctx, "osc_sig", 8);
  ctx.add_comb("osc", [&] { a.write(a.read() ^ 1); });
  try {
    ctx.initialize();
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("osc --[osc_sig]--> osc"), std::string::npos) << msg;
  }
}

TEST(Schedule, InterpreterStillCatchesCycleAtRuntime) {
  sim::Context ctx;
  ctx.set_kernel(sim::KernelKind::kInterp);
  sim::SignalU64 a(ctx, "a", 8);
  ctx.add_comb("osc", [&] { a.write(a.read() ^ 1); });
  EXPECT_THROW(ctx.step(), sim::SimError);
}

TEST(Schedule, StaticGraphSettlesInOneDeltaPerCycle) {
  sim::Context ctx;
  sim::SignalU64 a(ctx, "a", 8);
  sim::SignalU64 b(ctx, "b", 8);
  sim::SignalU64 c(ctx, "c", 8);
  ctx.add_clocked("drv", [&] { a.write(a.read() + 1); });
  // Registered consumer-first: the interpreter needs extra delta passes for
  // this ordering; the compiled kernel's ranks make it irrelevant.
  ctx.add_comb("c", [&] { c.write(b.read() + 1); });
  ctx.add_comb("b", [&] { b.write(a.read() * 2); });
  ctx.step(10);
  EXPECT_EQ(c.read(), 21u);
  EXPECT_EQ(ctx.delta_iterations(), 10u);  // exactly one per cycle
}

TEST(Schedule, ChangeDrivenSkippingCountsUntouchedProcesses) {
  sim::Context ctx;
  sim::SignalU64 a(ctx, "a", 8);
  sim::SignalU64 b(ctx, "b", 8);
  sim::SignalU64 q(ctx, "q", 8);  // quiet subgraph input, never driven
  sim::SignalU64 r(ctx, "r", 8);
  ctx.add_clocked("drv", [&] { a.write(a.read() + 1); });
  ctx.add_comb("hot", [&] { b.write(a.read() + 1); });
  ctx.add_comb("cold", [&] { r.write(q.read() + 1); });
  ctx.step(50);
  EXPECT_EQ(b.read(), 51u);
  EXPECT_EQ(r.read(), 1u);
  // The cold process ran during discovery/init only; every steady-state
  // cycle skipped it.
  EXPECT_GE(ctx.sched_skipped_evaluations(), 50u);
}

TEST(Schedule, DeclaredReadsKeepDataDependentProcessesStatic) {
  // Discovery only sees the branch taken on the initial evaluation; a
  // process that declares its full read superset stays statically
  // scheduled and still reacts to the undiscovered input.
  sim::Context ctx;
  sim::SignalU64 cnt(ctx, "cnt", 8);
  sim::SignalBool sel(ctx, "sel");
  sim::SignalU64 x(ctx, "x", 8);
  sim::SignalU64 y(ctx, "y", 8);
  sim::SignalU64 mux(ctx, "mux", 8);
  ctx.add_clocked("cnt", [&] {
    cnt.write(cnt.read() + 1);
    sel.write((cnt.read() & 2) != 0);
  });
  ctx.add_comb("x", [&] { x.write(cnt.read() * 3); });
  ctx.add_comb("y", [&] { y.write(cnt.read() + 7); });
  sim::CombOpts opts;
  opts.reads = {&sel, &x, &y};
  ctx.add_comb(
      "mux", [&] { mux.write(sel.read() ? y.read() : x.read()); },
      std::move(opts));
  for (int i = 0; i < 8; ++i) {
    ctx.step();
    const std::uint64_t c = cnt.read();
    // sel was computed from the pre-edge counter value.
    const std::uint64_t expect = ((c - 1) & 2) != 0 ? c + 7 : c * 3;
    ASSERT_EQ(mux.read(), expect) << "cycle " << i;
  }
  EXPECT_EQ(ctx.delta_iterations(), 8u);
}

TEST(Schedule, UnrecordedWriteToAnEarlierRankIsReported) {
  // `late` writes `s` only once the counter reaches 3, so elaboration never
  // records the write and `early` (its reader) shares its rank. One pass
  // over the ranks cannot settle that: the kernel names the process left
  // dirty instead of sampling a stale value. The interpreter still settles.
  auto build = [](sim::Context& ctx, sim::SignalU64& cnt, sim::SignalU64& s,
                  sim::SignalU64& o) {
    ctx.add_clocked("cnt", [&] { cnt.write(cnt.read() + 1); });
    ctx.add_comb("early", [&] { o.write(s.read() + 1); });
    ctx.add_comb("late", [&] {
      if (cnt.read() >= 3) s.write(cnt.read());
    });
  };
  {
    sim::Context ctx;
    sim::SignalU64 cnt(ctx, "cnt", 8);
    sim::SignalU64 s(ctx, "s", 8);
    sim::SignalU64 o(ctx, "o", 8);
    build(ctx, cnt, s, o);
    ctx.step(2);
    try {
      ctx.step();
      FAIL() << "expected SimError";
    } catch (const sim::SimError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("early"), std::string::npos) << msg;
      EXPECT_NE(msg.find("CombOpts::after"), std::string::npos) << msg;
    }
  }
  sim::Context ctx;
  ctx.set_kernel(sim::KernelKind::kInterp);
  sim::SignalU64 cnt(ctx, "cnt", 8);
  sim::SignalU64 s(ctx, "s", 8);
  sim::SignalU64 o(ctx, "o", 8);
  build(ctx, cnt, s, o);
  ctx.step(3);
  EXPECT_EQ(o.read(), 4u);
}

// The acceptance bar for the compiled kernel: identical report JSON and
// identical VCD bytes against the interpreter, for every shipped config,
// serial and sharded.
TEST(Schedule, KernelsProduceByteIdenticalArtifacts) {
  const fs::path configs = fs::path(CRVE_SOURCE_DIR) / "configs";
  const fs::path base = fs::temp_directory_path() / "crve_sched_equiv";
  fs::remove_all(base);

  for (const auto& entry : fs::directory_iterator(configs)) {
    if (entry.path().extension() != ".cfg") continue;
    const std::string cfg_name = entry.path().stem().string();

    struct Variant {
      sim::KernelKind kernel;
      unsigned jobs;
      const char* tag;
    };
    const Variant variants[] = {
        {sim::KernelKind::kCompiled, 1, "compiled_j1"},
        {sim::KernelKind::kCompiled, 4, "compiled_j4"},
        {sim::KernelKind::kInterp, 1, "interp_j1"},
        {sim::KernelKind::kInterp, 4, "interp_j4"},
    };
    std::vector<std::string> jsons;
    std::vector<std::string> vcds;
    for (const Variant& v : variants) {
      regress::RunPlan plan;
      plan.cfg = regress::parse_config_file(entry.path().string());
      plan.kernel = v.kernel;
      plan.jobs = v.jobs;
      plan.tests = {verif::t02_random_all_opcodes()};
      plan.seeds = {7};
      plan.n_transactions = 25;
      plan.out_dir = (base / (cfg_name + "_" + v.tag)).string();
      const auto res = regress::Regression::run(plan);
      jsons.push_back(res.json(/*with_timing=*/false));
      vcds.push_back(
          slurp(fs::path(plan.out_dir) / "t02_random_all_opcodes_s7_rtl.vcd") +
          slurp(fs::path(plan.out_dir) / "t02_random_all_opcodes_s7_bca.vcd"));
      EXPECT_FALSE(vcds.back().empty()) << cfg_name << " " << v.tag;
    }
    for (std::size_t i = 1; i < jsons.size(); ++i) {
      EXPECT_EQ(jsons[0], jsons[i])
          << cfg_name << ": report diverges for " << variants[i].tag;
      EXPECT_EQ(vcds[0] == vcds[i], true)
          << cfg_name << ": VCD bytes diverge for " << variants[i].tag;
    }
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace crve

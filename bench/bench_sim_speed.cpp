// C5/F3 — simulation speed of the two model views.
//
// Paper claims reproduced here:
//   * "The fast simulation of BCA models permits to fast find the optimized
//     configuration" — the BCA view simulates markedly faster than the RTL
//     view on the same traffic;
//   * "since VHDL simulator is used, the advantage of having fast SystemC
//     simulator is lost" (Fig. 3) — plugging the BCA model through the
//     wrapper layer erases that advantage.
//
// Reported counters: cycles/s (rate) and kernel process evaluations per
// cycle (the work metric that explains the rate).
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rtl/node.h"
#include "rtl/register_decoder.h"
#include "stbus/packet.h"
#include "stbus/pins.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "vcd/excerpt.h"
#include "vcd/recorder.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace {

using namespace crve;

stbus::NodeConfig make_cfg(int n_init, int n_targ, int bus_bytes) {
  stbus::NodeConfig cfg;
  cfg.n_initiators = n_init;
  cfg.n_targets = n_targ;
  cfg.bus_bytes = bus_bytes;
  cfg.type = stbus::ProtocolType::kType2;
  cfg.arch = stbus::Architecture::kFullCrossbar;
  cfg.arb = stbus::ArbPolicy::kLru;
  return cfg;
}

void run_model(benchmark::State& state, verif::ModelKind model,
               sim::KernelKind kernel = sim::KernelKind::kCompiled,
               bool sparse = false, bool environment = false) {
  const int n_init = static_cast<int>(state.range(0));
  const int n_targ = static_cast<int>(state.range(1));
  const int bus = static_cast<int>(state.range(2));

  std::uint64_t cycles = 0;
  std::uint64_t evals = 0;
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    verif::TestSpec spec = verif::t07_target_contention();
    spec.profile = [sparse](const stbus::NodeConfig& cfg, int) {
      verif::InitiatorProfile p;
      p.windows = {cfg.address_map.front()};
      p.windows.front().size = 0x1000;
      // Sparse shape: mostly-idle initiators against slow targets, the
      // regime where the compiled kernel's change-driven skipping pays.
      p.idle_permille = sparse ? 900 : 0;
      p.max_size_bytes = 8;
      return p;
    };
    if (sparse) {
      spec.target = [](const stbus::NodeConfig&, int) {
        verif::TargetProfile t;
        t.fixed_latency = 40;
        return t;
      };
    }
    spec.n_transactions = sparse ? 100 : 200;
    verif::TestbenchOptions opts;
    opts.model = model;
    opts.kernel = kernel;
    opts.seed = 3;
    // The paper compares *model* simulation speed; checkers/scoreboard/
    // coverage cost the same on every view, so they are left out here
    // unless the shape measures the environment itself (BM_Env*).
    opts.enable_checkers = environment;
    opts.enable_scoreboard = environment;
    opts.enable_coverage = environment;
    opts.enable_monitors = environment;
    opts.enable_reference_model = environment;
    verif::Testbench tb(make_cfg(n_init, n_targ, bus), spec, opts);
    state.ResumeTiming();

    const verif::RunResult r = tb.run();
    benchmark::DoNotOptimize(r.cycles);
    cycles += r.cycles;
    evals += r.evaluations;
    skipped += tb.ctx().sched_skipped_evaluations();
    if (!r.completed) state.SkipWithError("run failed");
  }
  state.counters["cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["evals_per_cycle"] =
      cycles > 0 ? static_cast<double>(evals) / static_cast<double>(cycles)
                 : 0.0;
  state.counters["skipped_per_cycle"] =
      cycles > 0 ? static_cast<double>(skipped) / static_cast<double>(cycles)
                 : 0.0;
}

void BM_Rtl(benchmark::State& state) {
  run_model(state, verif::ModelKind::kRtl);
}
void BM_Bca(benchmark::State& state) {
  run_model(state, verif::ModelKind::kBca);
}
void BM_BcaWrapped(benchmark::State& state) {
  run_model(state, verif::ModelKind::kBcaWrapped);
}
// Observability guard: the same BCA runs with metrics collection enabled.
// The kernel keeps its counters as plain members and publishes once per
// run, so the gap to BM_Bca should be noise (<2%); a larger gap means
// someone put an obs call into a per-cycle path.
void BM_BcaMetricsEnabled(benchmark::State& state) {
  obs::registry().reset();
  obs::set_metrics_enabled(true);
  run_model(state, verif::ModelKind::kBca);
  obs::set_metrics_enabled(false);
  obs::registry().reset();
}

// Kernel axis (this PR): the same RTL and wrapped-BCA runs under the
// reference delta-cycle interpreter, and sparse-activity variants of both
// — mostly-idle initiators against 40-cycle targets — where change-driven
// process skipping dominates. The compiled/interp ratio on the *Sparse
// pairs is the headline speedup tracked in EXPERIMENTS.md.
void BM_RtlInterp(benchmark::State& state) {
  run_model(state, verif::ModelKind::kRtl, sim::KernelKind::kInterp);
}
// Node-level sparse harness: the RTL node with RegisterDecoder targets,
// driven by a minimal directed FSM per initiator that issues one 4-byte
// store every `period` cycles and sits on a bare counter in between. No
// BFMs — their per-cycle bookkeeping (RNG draws, response matching) costs
// the same under every kernel and would flatten the ratio this benchmark
// exists to measure: the kernel's own per-cycle scheduling cost on a
// mostly-idle model.
void run_rtl_node_sparse(benchmark::State& state, sim::KernelKind kernel,
                         bool profile = false) {
  const int n_init = static_cast<int>(state.range(0));
  const int n_targ = static_cast<int>(state.range(1));
  const int period = static_cast<int>(state.range(2));
  constexpr int kCycles = 20000;

  std::uint64_t cycles = 0;
  std::uint64_t evals = 0;
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Context ctx;
    ctx.set_kernel(kernel);
    ctx.set_profiling(profile);
    stbus::NodeConfig cfg = make_cfg(n_init, n_targ, 4);
    cfg.validate_and_normalize();
    std::vector<std::unique_ptr<stbus::PortPins>> ipins;
    std::vector<std::unique_ptr<stbus::PortPins>> tpins;
    std::vector<stbus::PortPins*> ip;
    std::vector<stbus::PortPins*> tp;
    for (int i = 0; i < n_init; ++i) {
      ipins.push_back(std::make_unique<stbus::PortPins>(
          ctx, "i" + std::to_string(i), cfg));
      ip.push_back(ipins.back().get());
    }
    for (int t = 0; t < n_targ; ++t) {
      tpins.push_back(std::make_unique<stbus::PortPins>(
          ctx, "t" + std::to_string(t), cfg));
      tp.push_back(tpins.back().get());
    }
    rtl::Node node(ctx, cfg, ip, tp);
    std::vector<std::unique_ptr<rtl::RegisterDecoder>> decoders;
    for (int t = 0; t < n_targ; ++t) {
      decoders.push_back(std::make_unique<rtl::RegisterDecoder>(
          ctx, "dec" + std::to_string(t), *tp[static_cast<std::size_t>(t)],
          cfg.type, cfg.address_map[static_cast<std::size_t>(t)].base, 16));
    }

    struct Stim {
      int countdown = 0;
      int phase = 0;  // 0 = idle countdown, 1 = requesting, 2 = await rsp
      std::size_t idx = 0;
      std::vector<stbus::RequestCell> cells;
    };
    auto stims = std::make_shared<std::vector<Stim>>(
        static_cast<std::size_t>(n_init));
    for (int i = 0; i < n_init; ++i) {
      Stim& s = (*stims)[static_cast<std::size_t>(i)];
      stbus::Request req;
      req.opc = stbus::Opcode::kSt4;
      req.add = cfg.address_map[static_cast<std::size_t>(i % n_targ)].base;
      req.wdata = {1, 2, 3, 4};
      req.src = static_cast<std::uint8_t>(i);
      s.cells = stbus::build_request(req, cfg.bus_bytes, cfg.type);
      s.countdown = 1 + period * (i + 1) / n_init;  // staggered phases
      ip[static_cast<std::size_t>(i)]->r_gnt.write(true);
      ctx.add_clocked(
          "stim" + std::to_string(i),
          [stims, i, pins = ip[static_cast<std::size_t>(i)], period] {
            Stim& st = (*stims)[static_cast<std::size_t>(i)];
            switch (st.phase) {
              case 0:
                if (--st.countdown > 0) return;  // dead cycle: one decrement
                st.idx = 0;
                pins->drive_request(st.cells[0]);
                st.phase = 1;
                return;
              case 1:
                if (!pins->request_fires()) return;
                if (++st.idx < st.cells.size()) {
                  pins->drive_request(st.cells[st.idx]);
                } else {
                  pins->idle_request();
                  st.phase = 2;
                }
                return;
              default:
                if (pins->response_fires() && pins->r_eop.read()) {
                  st.phase = 0;
                  st.countdown = period;
                }
                return;
            }
          });
    }
    ctx.initialize();
    state.ResumeTiming();

    ctx.step(kCycles);
    benchmark::DoNotOptimize(ctx.cycle());
    cycles += kCycles;
    evals += ctx.evaluations();
    skipped += ctx.sched_skipped_evaluations();
  }
  state.counters["cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["evals_per_cycle"] =
      cycles > 0 ? static_cast<double>(evals) / static_cast<double>(cycles)
                 : 0.0;
  state.counters["skipped_per_cycle"] =
      cycles > 0 ? static_cast<double>(skipped) / static_cast<double>(cycles)
                 : 0.0;
}

void BM_RtlSparse(benchmark::State& state) {
  run_rtl_node_sparse(state, sim::KernelKind::kCompiled);
}
void BM_RtlSparseInterp(benchmark::State& state) {
  run_rtl_node_sparse(state, sim::KernelKind::kInterp);
}
void BM_BcaWrappedSparse(benchmark::State& state) {
  run_model(state, verif::ModelKind::kBcaWrapped, sim::KernelKind::kCompiled,
            /*sparse=*/true);
}
void BM_BcaWrappedSparseInterp(benchmark::State& state) {
  run_model(state, verif::ModelKind::kBcaWrapped, sim::KernelKind::kInterp,
            /*sparse=*/true);
}

// The full verification environment on: monitors, protocol checkers,
// scoreboard, coverage and reference model, on each view, under sparse and
// dense traffic. Nothing else below the campaign benchmark tracks their
// cost. Each shape has an `Off` twin with the environment off and the same
// stimulus: one agent per port steps the BFM, checker and monitor as one
// process, so `evals_per_cycle` must be equal across each pair (CI asserts
// it) and the cycles_per_s gap is the environment's host cost.
void BM_EnvSparse(benchmark::State& state, verif::ModelKind model) {
  run_model(state, model, sim::KernelKind::kCompiled, /*sparse=*/true,
            /*environment=*/true);
}
void BM_EnvSparseOff(benchmark::State& state, verif::ModelKind model) {
  run_model(state, model, sim::KernelKind::kCompiled, /*sparse=*/true);
}
void BM_EnvDense(benchmark::State& state, verif::ModelKind model) {
  run_model(state, model, sim::KernelKind::kCompiled, /*sparse=*/false,
            /*environment=*/true);
}
void BM_EnvDenseOff(benchmark::State& state, verif::ModelKind model) {
  run_model(state, model, sim::KernelKind::kCompiled);
}

void shapes(benchmark::internal::Benchmark* b) {
  b->Args({2, 2, 4})->Args({4, 4, 4})->Args({8, 4, 4})->Args({4, 4, 16});
  b->Unit(benchmark::kMillisecond);
}

void sparse_shapes(benchmark::internal::Benchmark* b) {
  b->Args({2, 2, 4})->Args({4, 4, 4});
  b->Unit(benchmark::kMillisecond);
}

// (n_init, n_targ, period): one store transaction per initiator every
// `period` cycles; larger period = sparser activity.
void rtl_sparse_shapes(benchmark::internal::Benchmark* b) {
  b->Args({2, 2, 400})->Args({4, 4, 800})->Args({2, 2, 20000});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Bca)->Apply(shapes);
BENCHMARK(BM_BcaMetricsEnabled)->Apply(shapes);
BENCHMARK(BM_Rtl)->Apply(shapes);
BENCHMARK(BM_RtlInterp)->Apply(shapes);
BENCHMARK(BM_BcaWrapped)->Apply(shapes);
BENCHMARK(BM_RtlSparse)->Apply(rtl_sparse_shapes);
BENCHMARK(BM_RtlSparseInterp)->Apply(rtl_sparse_shapes);

// Profiler overhead guard (DESIGN.md §15): the same sparse node harness
// with the kernel hotspot profiler off vs on. The disabled run must track
// BM_RtlSparse within noise — every collection site is one well-predicted
// branch, and the <2% obs overhead budget covers it. The enabled run pays
// two monotonic-clock reads per process evaluation; on this sparse shape
// most scheduling slots are skips (a counter bump), so the gap bounds the
// worst case, not the typical one.
void BM_ProfilerDisabled(benchmark::State& state) {
  run_rtl_node_sparse(state, sim::KernelKind::kCompiled, /*profile=*/false);
}
void BM_ProfilerEnabled(benchmark::State& state) {
  run_rtl_node_sparse(state, sim::KernelKind::kCompiled, /*profile=*/true);
}
BENCHMARK(BM_ProfilerDisabled)->Apply(rtl_sparse_shapes);
BENCHMARK(BM_ProfilerEnabled)->Apply(rtl_sparse_shapes);

// Txn-tracer overhead guard (DESIGN.md §16): the full monitored testbench
// with transaction-lifecycle tracing off vs on. With the option off no
// tracer, taps or hooks exist at all — the disabled run must track a plain
// monitored run within noise (the <2% obs overhead budget, EXPERIMENTS.md).
// The enabled run pays one tap callback per completed packet and one hook
// call per issued request — per-transaction, never per-cycle — so the gap
// stays bounded even under dense traffic.
void run_txn_model(benchmark::State& state, bool traced) {
  const int n_init = static_cast<int>(state.range(0));
  const int n_targ = static_cast<int>(state.range(1));
  const int bus = static_cast<int>(state.range(2));

  std::uint64_t cycles = 0;
  std::uint64_t spans = 0;
  for (auto _ : state) {
    state.PauseTiming();
    verif::TestSpec spec = verif::t07_target_contention();
    spec.n_transactions = 200;
    verif::TestbenchOptions opts;
    opts.model = verif::ModelKind::kRtl;
    opts.seed = 3;
    // Monitors are the tracer's substrate and stay on in both runs; the
    // other verification components cost the same either way and are left
    // out so the tap overhead isn't diluted.
    opts.enable_checkers = false;
    opts.enable_scoreboard = false;
    opts.enable_coverage = false;
    opts.enable_reference_model = false;
    opts.txn_trace = traced;
    verif::Testbench tb(make_cfg(n_init, n_targ, bus), spec, opts);
    state.ResumeTiming();

    verif::RunResult r = tb.run();
    benchmark::DoNotOptimize(r.cycles);
    cycles += r.cycles;
    spans += r.txn.total_spans();
    if (!r.completed) state.SkipWithError("run failed");
  }
  state.counters["cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["spans_per_s"] = benchmark::Counter(
      static_cast<double>(spans), benchmark::Counter::kIsRate);
}
void BM_TxnTracerDisabled(benchmark::State& state) {
  run_txn_model(state, /*traced=*/false);
}
void BM_TxnTracerEnabled(benchmark::State& state) {
  run_txn_model(state, /*traced=*/true);
}
BENCHMARK(BM_TxnTracerDisabled)->Apply(sparse_shapes);
BENCHMARK(BM_TxnTracerEnabled)->Apply(sparse_shapes);
BENCHMARK(BM_BcaWrappedSparse)->Apply(sparse_shapes);
BENCHMARK(BM_BcaWrappedSparseInterp)->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvSparse, rtl, verif::ModelKind::kRtl)
    ->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvSparseOff, rtl, verif::ModelKind::kRtl)
    ->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvSparse, bca, verif::ModelKind::kBca)
    ->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvSparseOff, bca, verif::ModelKind::kBca)
    ->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvDense, rtl, verif::ModelKind::kRtl)
    ->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvDenseOff, rtl, verif::ModelKind::kRtl)
    ->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvDense, bca, verif::ModelKind::kBca)
    ->Apply(sparse_shapes);
BENCHMARK_CAPTURE(BM_EnvDenseOff, bca, verif::ModelKind::kBca)
    ->Apply(sparse_shapes);

// Long sparse trace through the shipped tracer (the vcd::Recorder), then the
// recording written once as a VCD wave, as a Testbench with a dump target
// does: `n_signals` registered signals, only `n_active` of them written per
// cycle. The change-driven kernel hands tracers just the changed indices, so
// the per-cycle tracing cost scales with n_active, not n_signals.
void BM_TracedSimSparse(benchmark::State& state) {
  const int n_signals = static_cast<int>(state.range(0));
  const int n_active = static_cast<int>(state.range(1));
  constexpr int kCycles = 5000;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Context ctx;
    std::vector<std::unique_ptr<sim::SignalU64>> sigs;
    sigs.reserve(static_cast<std::size_t>(n_signals));
    for (int i = 0; i < n_signals; ++i) {
      sigs.push_back(std::make_unique<sim::SignalU64>(
          ctx, "tb.s" + std::to_string(i), 16));
    }
    ctx.add_clocked("drv", [&] {
      // A rotating window of n_active signals changes each cycle.
      const auto c = ctx.cycle();
      for (int k = 0; k < n_active; ++k) {
        auto& s = *sigs[static_cast<std::size_t>(
            (c * static_cast<std::uint64_t>(n_active) +
             static_cast<std::uint64_t>(k)) %
            static_cast<std::uint64_t>(n_signals))];
        s.write(s.read() + 1);
      }
    });
    std::ostringstream os;
    vcd::Recorder rec;
    ctx.attach_tracer(&rec);
    state.ResumeTiming();

    ctx.step(kCycles);
    vcd::write_wave(rec.trace(), os);  // the wave a Testbench writes
    benchmark::DoNotOptimize(os.tellp());
    cycles += kCycles;
  }
  state.counters["cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["signals"] = static_cast<double>(n_signals);
  state.counters["active_per_cycle"] = static_cast<double>(n_active);
}

BENCHMARK(BM_TracedSimSparse)
    ->Args({200, 2})
    ->Args({200, 50})
    ->Args({1000, 2})
    ->Args({1000, 100})
    ->Unit(benchmark::kMillisecond);

// The zero-cost guarantee measured directly: with collection disabled (the
// process default) one counter update, one histogram observe and one span
// guard together should take a few nanoseconds — each is a relaxed atomic
// load and a branch. Compare against BM_ObsEnabledOps for the enabled cost
// (a thread-local lookup and a plain add).
void BM_ObsDisabledOps(benchmark::State& state) {
  auto c = obs::counter("bench.ops");
  auto h = obs::histogram("bench.ops_h");
  std::uint64_t i = 0;
  for (auto _ : state) {
    c.inc();
    h.observe(i++);
    CRVE_SPAN("bench_ops");
  }
}
BENCHMARK(BM_ObsDisabledOps);

void BM_ObsEnabledOps(benchmark::State& state) {
  obs::registry().reset();
  obs::set_metrics_enabled(true);
  auto c = obs::counter("bench.ops");
  auto h = obs::histogram("bench.ops_h");
  std::uint64_t i = 0;
  for (auto _ : state) {
    c.inc();
    h.observe(i++);
  }
  obs::set_metrics_enabled(false);
  obs::registry().reset();
}
BENCHMARK(BM_ObsEnabledOps);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "== C5/F3: simulation speed, BCA vs RTL vs BCA-behind-wrappers ==\n"
      "Expected shape (paper): BCA fastest; RTL slower; wrapped BCA loses\n"
      "the BCA advantage (compare cycles_per_s).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// C4 — STBA alignment rates and the 99% sign-off threshold.
//
// Paper: "The rate calculated at each port level is the number of cycles
// RTL and BCA signal ports are aligned over the total number of clock
// cycles. The targeted value, in order to consider the BCA model signed
// off, is 99%."
//
// Series printed:
//   * per-port alignment of the clean BCA model (must be 100% everywhere);
//   * per-port alignment under each injected fault, with the first
//     divergence localised — the report a verification engineer would use
//     to debug the model.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/bits.h"
#include "regress/runner.h"
#include "stba/analyzer.h"
#include "stba/triage.h"
#include "vcd/recorder.h"
#include "verif/tests.h"

namespace {

using namespace crve;

stbus::NodeConfig cfg4() {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.type = stbus::ProtocolType::kType2;
  cfg.arch = stbus::Architecture::kFullCrossbar;
  cfg.arb = stbus::ArbPolicy::kLru;
  return cfg;
}

void report(const char* label, const bca::Faults& faults,
            verif::TestSpec spec) {
  regress::RunPlan plan;
  plan.cfg = cfg4();
  plan.tests = {std::move(spec)};
  plan.seeds = {19};
  plan.n_transactions = 100;
  plan.faults = faults;
  plan.max_cycles = 60000;
  const auto res = regress::Regression::run(plan);
  std::printf("--- %s ---\n", label);
  for (const auto& a : res.alignments) {
    for (const auto& p : a.report.ports) {
      std::printf("  %-10s %8.3f%%", p.port.c_str(), 100.0 * p.rate());
      if (p.diverged()) {
        std::printf("   first divergence @ cycle %llu on %s",
                    static_cast<unsigned long long>(p.first_divergence),
                    p.diverged_signals.front().c_str());
      }
      std::printf("\n");
    }
    std::printf("  => min %.3f%%, %s (threshold 99%%)\n\n",
                100.0 * a.report.min_rate(),
                a.report.signed_off() ? "SIGNED OFF" : "NOT signed off");
  }
}

void print_tables() {
  std::printf("== C4: bus-accurate comparison (STBA) ==\n\n");
  report("clean BCA model, random test", {}, verif::t02_random_all_opcodes());

  bca::Faults lock;
  lock.grant_during_lock = true;
  report("fault: grant_during_lock, chunked test", lock,
         verif::t05_chunked_traffic());

  bca::Faults swap;
  swap.response_src_swap = true;
  report("fault: response_src_swap, out-of-order test", swap,
         verif::t03_out_of_order());

  bca::Faults prio;
  prio.priority_register_ignored = true;
  report("fault: priority_register_ignored, programmable-priority test",
         prio, verif::t08_programmable_priority());
}

void BM_StbaCompare(benchmark::State& state) {
  // Produce a pair of dumps once, then time the analyzer itself.
  std::ostringstream rtl_os, bca_os;
  for (int m = 0; m < 2; ++m) {
    verif::TestbenchOptions opts;
    opts.model = m == 0 ? verif::ModelKind::kRtl : verif::ModelKind::kBca;
    opts.seed = 19;
    opts.vcd_stream = m == 0 ? &rtl_os : &bca_os;
    verif::TestSpec spec = verif::t02_random_all_opcodes();
    spec.n_transactions = static_cast<int>(state.range(0));
    verif::Testbench tb(cfg4(), spec, opts);
    tb.run();
  }
  std::istringstream a(rtl_os.str()), b(bca_os.str());
  const vcd::Trace ta = vcd::Trace::parse(a);
  const vcd::Trace tb2 = vcd::Trace::parse(b);
  std::vector<std::string> ports;
  for (int i = 0; i < 3; ++i) {
    ports.push_back("tb.init" + std::to_string(i));
  }
  for (int t = 0; t < 2; ++t) {
    ports.push_back("tb.targ" + std::to_string(t));
  }
  for (auto _ : state) {
    const auto rep = stba::Analyzer::compare(ta, tb2, ports);
    benchmark::DoNotOptimize(rep.ports.size());
  }
  state.counters["cycles"] = static_cast<double>(ta.max_time() + 1);
}

BENCHMARK(BM_StbaCompare)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

// What the regression runner does for a pair that misses sign-off
// (grant_during_lock fault): one comparison that also fills the triage —
// windows, per-signal intervals and in-flight cells from the same walk.
// Run next to BM_StbaCompareFaultedPair for the overhead reported in
// EXPERIMENTS.md.
void BM_Triage(benchmark::State& state) {
  std::ostringstream rtl_os, bca_os;
  for (int m = 0; m < 2; ++m) {
    verif::TestbenchOptions opts;
    opts.model = m == 0 ? verif::ModelKind::kRtl : verif::ModelKind::kBca;
    opts.seed = 19;
    opts.vcd_stream = m == 0 ? &rtl_os : &bca_os;
    if (m == 1) opts.faults.grant_during_lock = true;
    verif::TestSpec spec = verif::t05_chunked_traffic();
    spec.n_transactions = static_cast<int>(state.range(0));
    verif::Testbench tb(cfg4(), spec, opts);
    tb.run();
  }
  std::istringstream a(rtl_os.str()), b(bca_os.str());
  const vcd::Trace ta = vcd::Trace::parse(a);
  const vcd::Trace tb2 = vcd::Trace::parse(b);
  std::vector<std::string> ports;
  for (int i = 0; i < 3; ++i) ports.push_back("tb.init" + std::to_string(i));
  for (int t = 0; t < 2; ++t) ports.push_back("tb.targ" + std::to_string(t));
  std::uint64_t windows = 0;
  for (auto _ : state) {
    stba::TriageReport tri;
    const auto rep = stba::Analyzer::compare(ta, tb2, ports, nullptr, &tri);
    benchmark::DoNotOptimize(rep.ports.size());
    windows = 0;
    for (const auto& p : tri.ports) windows += p.window_count;
    benchmark::DoNotOptimize(windows);
  }
  state.counters["cycles"] = static_cast<double>(ta.max_time() + 1);
  state.counters["windows"] = static_cast<double>(windows);
}

BENCHMARK(BM_Triage)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

// One C2 sign-off pair end to end: both views simulated with their trace
// sink attached, then aligned. The recorded path is what the regression
// runner does; the round trip is the path it replaced (each view dumped as
// VCD text, parsed back, then compared). The gap between the two is the
// sink + parse cost per pair, at the same simulation work.
std::vector<std::string> pair_ports() {
  std::vector<std::string> ports;
  for (int i = 0; i < 3; ++i) ports.push_back("tb.init" + std::to_string(i));
  for (int t = 0; t < 2; ++t) ports.push_back("tb.targ" + std::to_string(t));
  return ports;
}

verif::TestbenchOptions pair_view(int m) {
  verif::TestbenchOptions opts;
  opts.model = m == 0 ? verif::ModelKind::kRtl : verif::ModelKind::kBca;
  opts.seed = 19;
  return opts;
}

void BM_AlignPairRecorded(benchmark::State& state) {
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = static_cast<int>(state.range(0));
  const auto ports = pair_ports();
  double min_rate = 0.0;
  for (auto _ : state) {
    vcd::Trace traces[2];
    for (int m = 0; m < 2; ++m) {
      vcd::Recorder rec;
      verif::TestbenchOptions opts = pair_view(m);
      opts.recorder = &rec;
      {
        verif::Testbench tb(cfg4(), spec, opts);
        tb.run();
      }
      traces[m] = rec.take();
    }
    min_rate = stba::Analyzer::compare(traces[0], traces[1], ports).min_rate();
    benchmark::DoNotOptimize(min_rate);
  }
  state.counters["min_rate"] = min_rate;
}

void BM_AlignPairVcdRoundTrip(benchmark::State& state) {
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = static_cast<int>(state.range(0));
  const auto ports = pair_ports();
  double min_rate = 0.0;
  for (auto _ : state) {
    vcd::Trace traces[2];
    for (int m = 0; m < 2; ++m) {
      std::ostringstream os;
      verif::TestbenchOptions opts = pair_view(m);
      opts.vcd_stream = &os;
      {
        verif::Testbench tb(cfg4(), spec, opts);
        tb.run();
      }
      std::istringstream is(std::move(os).str());
      traces[m] = vcd::Trace::parse(is);
    }
    min_rate = stba::Analyzer::compare(traces[0], traces[1], ports).min_rate();
    benchmark::DoNotOptimize(min_rate);
  }
  state.counters["min_rate"] = min_rate;
}

BENCHMARK(BM_AlignPairRecorded)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AlignPairVcdRoundTrip)->Arg(100)->Unit(benchmark::kMillisecond);

// The recorder on a dense C2 pair: both views of the dense shape
// bench_sim_speed's BM_EnvDense runs (every initiator busy, 200 short
// transactions), the RTL view with its full environment and the BCA view
// with its passive environment off, as a lean sign-off campaign runs them.
// BM_RecordDense attaches a vcd::Recorder to each view and BM_RecordDenseOff
// does not, so the gap between the two is the recorder's cost;
// `changes_per_s` is the rate it records at.
void record_dense_pair(benchmark::State& state, bool recorded) {
  stbus::NodeConfig cfg = cfg4();
  cfg.n_initiators = static_cast<int>(state.range(0));
  cfg.n_targets = static_cast<int>(state.range(1));
  verif::TestSpec spec = verif::t07_target_contention();
  spec.profile = [](const stbus::NodeConfig& c, int) {
    verif::InitiatorProfile p;
    p.windows = {c.address_map.front()};
    p.windows.front().size = 0x1000;
    p.idle_permille = 0;
    p.max_size_bytes = 8;
    return p;
  };
  spec.n_transactions = 200;
  std::uint64_t changes = 0;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    for (int m = 0; m < 2; ++m) {
      state.PauseTiming();
      vcd::Recorder rec;
      verif::TestbenchOptions opts = pair_view(m);
      if (m == 1) opts.drop_passive_environment();
      if (recorded) opts.recorder = &rec;
      verif::Testbench tb(cfg, spec, opts);
      state.ResumeTiming();

      const verif::RunResult r = tb.run();
      benchmark::DoNotOptimize(r.cycles);
      cycles += r.cycles;
      for (std::size_t v = 0; v < rec.trace().vars().size(); ++v) {
        changes += rec.trace().change_count(static_cast<int>(v));
      }
      if (!r.completed) state.SkipWithError("run failed");
    }
  }
  state.counters["changes_per_s"] = benchmark::Counter(
      static_cast<double>(changes), benchmark::Counter::kIsRate);
  state.counters["cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_RecordDense(benchmark::State& state) {
  record_dense_pair(state, /*recorded=*/true);
}
void BM_RecordDenseOff(benchmark::State& state) {
  record_dense_pair(state, /*recorded=*/false);
}

BENCHMARK(BM_RecordDense)->Args({4, 4})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecordDenseOff)->Args({4, 4})->Unit(benchmark::kMillisecond);

// The sign-off comparison alone on one recorded C2 pair, both views
// recorded once outside the timed loop. The clean pair records equal
// traces, so compare() proves every port aligned without walking any;
// under grant_during_lock the recordings differ and every port takes the
// RunWalker merge and the cell diff. `ports_walked` counts them: 0 or all.
void compare_recorded_pair(benchmark::State& state, const bca::Faults& faults,
                           verif::TestSpec spec) {
  spec.n_transactions = static_cast<int>(state.range(0));
  vcd::Trace traces[2];
  for (int m = 0; m < 2; ++m) {
    vcd::Recorder rec;
    verif::TestbenchOptions opts = pair_view(m);
    opts.recorder = &rec;
    if (m == 1) opts.faults = faults;
    {
      verif::Testbench tb(cfg4(), spec, opts);
      tb.run();
    }
    traces[m] = rec.take();
  }
  const auto ports = pair_ports();
  double min_rate = 0.0;
  bool equal = false;
  for (auto _ : state) {
    min_rate = stba::Analyzer::compare(traces[0], traces[1], ports, &equal)
                   .min_rate();
    benchmark::DoNotOptimize(min_rate);
  }
  state.counters["min_rate"] = min_rate;
  state.counters["ports_walked"] =
      equal ? 0.0 : static_cast<double>(ports.size());
  state.counters["cycles"] = static_cast<double>(
      std::max(traces[0].max_time(), traces[1].max_time()) + 1);
}

void BM_StbaCompareCleanPair(benchmark::State& state) {
  compare_recorded_pair(state, {}, verif::t02_random_all_opcodes());
}

void BM_StbaCompareFaultedPair(benchmark::State& state) {
  bca::Faults lock;
  lock.grant_during_lock = true;
  compare_recorded_pair(state, lock, verif::t05_chunked_traffic());
}

BENCHMARK(BM_StbaCompareCleanPair)->Arg(100)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StbaCompareFaultedPair)->Arg(100)->Unit(benchmark::kMicrosecond);

// Long sparse trace: many cycles, few changes. This is the shape the
// change-driven merge is built for — the per-cycle scan it replaced walked
// every one of the `cycles` x 17 field values through a binary search,
// while the merge visits only the change events. One single-cycle granted
// pulse every `stride` cycles. Both sides read the same dump, which
// compare() would prove identical without a walk, so this bench times
// compare_by_merge to keep measuring the merge.
std::string sparse_dump(std::uint64_t cycles, std::uint64_t stride) {
  std::ostringstream os;
  os << "$timescale 1ns $end\n$scope module tb $end\n$scope module p0 $end\n";
  const char* names[] = {"req", "gnt", "opc", "add", "data", "be", "eop",
                         "lck", "src", "tid", "r_req", "r_gnt", "r_opc",
                         "r_data", "r_eop", "r_src", "r_tid"};
  const int widths[] = {1, 1, 6, 32, 32, 4, 1, 1, 6, 8, 1, 1, 2, 32, 1, 6, 8};
  for (int i = 0; i < 17; ++i) {
    os << "$var wire " << widths[i] << " " << static_cast<char>('!' + i)
       << " " << names[i] << " $end\n";
  }
  os << "$upscope $end\n$upscope $end\n$enddefinitions $end\n";
  for (std::uint64_t t = 0; t + 1 < cycles; t += stride) {
    os << "#" << t << "\n1!\n1\"\n";
    os << "b" << crve::Bits(32, t).to_bin_string() << " $\n";
    os << "#" << (t + 1) << "\n0!\n0\"\n";
  }
  os << "#" << (cycles - 1) << "\n";
  return os.str();
}

void BM_StbaCompareSparse(benchmark::State& state) {
  const auto cycles = static_cast<std::uint64_t>(state.range(0));
  const auto stride = static_cast<std::uint64_t>(state.range(1));
  const std::string d = sparse_dump(cycles, stride);
  std::istringstream ia(d), ib(d);
  const vcd::Trace a = vcd::Trace::parse(ia);
  const vcd::Trace b = vcd::Trace::parse(ib);
  for (auto _ : state) {
    const auto rep = stba::Analyzer::compare_by_merge(a, b, {"tb.p0"});
    benchmark::DoNotOptimize(rep.ports.front().aligned_cycles);
  }
  state.counters["cycles"] = static_cast<double>(cycles);
  std::uint64_t n_changes = 0;
  for (std::size_t v = 0; v < a.vars().size(); ++v) {
    n_changes += a.changes(static_cast<int>(v)).size();
  }
  state.counters["changes"] = static_cast<double>(n_changes);
}

// 100k cycles with a pulse every 1000 (sparse) and every 100 (denser);
// 1M cycles as the scaling point.
BENCHMARK(BM_StbaCompareSparse)
    ->Args({100000, 1000})
    ->Args({100000, 100})
    ->Args({1000000, 1000})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

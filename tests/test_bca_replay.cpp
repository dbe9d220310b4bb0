// BCA replay (DESIGN.md §8): in an aligned campaign each BCA view is first
// driven from its pair's RTL recording. A proved replay settles the BCA
// result from the RTL view's and proves the pair aligned; a replay that
// diverges gives way to the closed-loop BCA view. Settled results, the
// proof's decision and the first divergent cycle must all equal what the
// closed loop gives.
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "metrics_guard.h"
#include "obs/metrics.h"
#include "regress/config_file.h"
#include "regress/job_spec.h"
#include "regress/replay.h"
#include "regress/runner.h"
#include "sim/context.h"
#include "stba/analyzer.h"
#include "stbus/pins.h"
#include "vcd/recorder.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using verif::ModelKind;
using verif::RunResult;

using test::MetricsGuard;

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [n, v] : obs::registry().snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

// Every field of two results, timing (the profile's wall times) excepted.
void expect_same_result(const RunResult& a, const RunResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.completed, b.completed) << where;
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.evaluations, b.evaluations) << where;
  EXPECT_EQ(a.checker_violations, b.checker_violations) << where;
  EXPECT_EQ(a.scoreboard_errors, b.scoreboard_errors) << where;
  EXPECT_EQ(a.reference_mismatches, b.reference_mismatches) << where;
  EXPECT_EQ(a.coverage_percent, b.coverage_percent) << where;
  EXPECT_EQ(a.coverage_digest, b.coverage_digest) << where;
  EXPECT_EQ(a.request_packets, b.request_packets) << where;
  EXPECT_EQ(a.response_packets, b.response_packets) << where;
  EXPECT_EQ(a.request_opcode_cells, b.request_opcode_cells) << where;
  ASSERT_EQ(a.utilisation.size(), b.utilisation.size()) << where;
  for (std::size_t k = 0; k < a.utilisation.size(); ++k) {
    const auto& ua = a.utilisation[k];
    const auto& ub = b.utilisation[k];
    EXPECT_EQ(ua.port, ub.port) << where;
    EXPECT_EQ(ua.busy_cycles, ub.busy_cycles) << where << " " << ua.port;
    EXPECT_EQ(ua.request_packets, ub.request_packets) << where;
    EXPECT_EQ(ua.response_packets, ub.response_packets) << where;
  }
  ASSERT_EQ(a.violations.size(), b.violations.size()) << where;
  for (std::size_t k = 0; k < a.violations.size(); ++k) {
    const auto& va = a.violations[k];
    const auto& vb = b.violations[k];
    EXPECT_EQ(va.cycle, vb.cycle) << where;
    EXPECT_EQ(va.port, vb.port) << where;
    EXPECT_EQ(va.rule, vb.rule) << where;
    EXPECT_EQ(va.message, vb.message) << where;
  }
  auto same_errors = [&where](const auto& ea, const auto& eb) {
    ASSERT_EQ(ea.size(), eb.size()) << where;
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].cycle, eb[k].cycle) << where;
      EXPECT_EQ(ea[k].where, eb[k].where) << where;
      EXPECT_EQ(ea[k].message, eb[k].message) << where;
    }
  };
  same_errors(a.sb_errors, b.sb_errors);
  same_errors(a.ref_errors, b.ref_errors);
  EXPECT_EQ(a.txn.total_spans(), b.txn.total_spans()) << where;
  ASSERT_EQ(a.profile.procs.size(), b.profile.procs.size()) << where;
  for (std::size_t k = 0; k < a.profile.procs.size(); ++k) {
    EXPECT_EQ(a.profile.procs[k].name, b.profile.procs[k].name) << where;
    EXPECT_EQ(a.profile.procs[k].evals, b.profile.procs[k].evals) << where;
  }
}

constexpr int kTransactions = 20;

regress::RunPlan replay_plan() {
  regress::RunPlan plan;
  plan.seeds = {1};
  plan.n_transactions = kTransactions;
  plan.jobs = 2;
  return plan;
}

std::vector<stbus::NodeConfig> shipped_configs() {
  return regress::configs_from_dir(CRVE_SOURCE_DIR "/configs");
}

// Four shapes of the C2 sign-off matrix the shipped configs leave out: a
// programmable arbiter with its programming port, an 8-bit bus, a Type3
// partial crossbar and a bandwidth-limited arbiter.
std::vector<stbus::NodeConfig> c2_shapes() {
  stbus::NodeConfig prog;
  prog.name = "c2_prog";
  prog.n_initiators = 3;
  prog.n_targets = 2;
  prog.arb = stbus::ArbPolicy::kProgrammable;
  prog.priorities = {2, 0, 1};
  prog.programming_port = true;
  stbus::NodeConfig w8;
  w8.name = "c2_w8";
  w8.n_initiators = 2;
  w8.n_targets = 2;
  w8.bus_bytes = 1;
  w8.arb = stbus::ArbPolicy::kRoundRobin;
  stbus::NodeConfig t3;
  t3.name = "c2_t3_partial";
  t3.n_initiators = 3;
  t3.n_targets = 2;
  t3.type = stbus::ProtocolType::kType3;
  t3.arch = stbus::Architecture::kPartialCrossbar;
  t3.arb = stbus::ArbPolicy::kLru;
  stbus::NodeConfig bw;
  bw.name = "c2_bandwidth";
  bw.n_initiators = 3;
  bw.n_targets = 2;
  bw.arb = stbus::ArbPolicy::kBandwidthLimited;
  bw.bandwidth_quota = {6, 11, 16};
  std::vector<stbus::NodeConfig> out = {prog, w8, t3, bw};
  for (auto& c : out) c.validate_and_normalize();
  return out;
}

verif::TestSpec sized(verif::TestSpec spec) {
  spec.n_transactions = kTransactions;
  return spec;
}

// One closed-loop view run with its recording.
struct Recorded {
  vcd::Trace trace;
  RunResult result;
};

Recorded record(const stbus::NodeConfig& cfg, const verif::TestSpec& spec,
                ModelKind model, const bca::Faults& faults = {},
                std::uint64_t max_cycles = 500000) {
  vcd::Recorder rec;
  verif::TestbenchOptions opts;
  opts.model = model;
  opts.seed = 1;
  opts.max_cycles = max_cycles;
  opts.faults = faults;
  opts.recorder = &rec;
  Recorded out;
  out.result = verif::Testbench(cfg, spec, opts).run();
  out.trace = rec.take();
  return out;
}

regress::BcaReplay replay(const stbus::NodeConfig& cfg,
                          const verif::TestSpec& spec, const Recorded& rtl,
                          const bca::Faults& faults = {}) {
  return regress::replay_bca(cfg, spec, sim::KernelKind::kCompiled, faults,
                             rtl.trace, rtl.result.cycles);
}

// The first time some variable of two recordings under one variable table
// holds different values: where the closed-loop comparison of the pair
// first diverges. ~0 for equal value histories.
std::uint64_t first_difference(const vcd::Trace& a, const vcd::Trace& b) {
  std::vector<vcd::Trace::Cursor> ca, cb;
  for (std::size_t v = 0; v < a.vars().size(); ++v) {
    ca.push_back(a.cursor(static_cast<int>(v)));
    cb.push_back(b.cursor(static_cast<int>(v)));
  }
  const std::uint64_t end = std::max(a.max_time(), b.max_time());
  for (std::uint64_t t = 0; t <= end; ++t) {
    for (std::size_t v = 0; v < ca.size(); ++v) {
      if (ca[v].value_at(t) != cb[v].value_at(t)) return t;
    }
  }
  return ~std::uint64_t{0};
}

// The ports a campaign aligns for `cfg`.
std::vector<std::string> alignment_ports(const stbus::NodeConfig& cfg) {
  std::vector<std::string> ports;
  for (int i = 0; i < cfg.n_initiators; ++i) {
    ports.push_back(verif::Testbench::initiator_port_name(i));
  }
  for (int t = 0; t < cfg.n_targets; ++t) {
    ports.push_back(verif::Testbench::target_port_name(t));
  }
  return ports;
}

// Every shipped config (one has a programming port, and t08 drives one on
// the others) and four C2 shapes x the CATG suite: every pair is proved by
// its replay, and each settled BCA result, evaluations included, equals a
// closed-loop BCA run.
TEST(ReplayProof, CleanPairsSettleAsTheClosedLoop) {
  MetricsGuard guard;
  auto configs = shipped_configs();
  ASSERT_FALSE(configs.empty());
  for (const auto& c : c2_shapes()) configs.push_back(c);
  const regress::RunPlan plan = replay_plan();
  const regress::MatrixResult m = regress::Regression::run_matrix(configs, plan);
  ASSERT_TRUE(m.all_signed_off);
  const auto suite = verif::catg_test_suite();
  std::size_t pairs = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const regress::RegressionResult& res = m.results[c];
    ASSERT_EQ(res.outcomes.size(), 2 * suite.size());
    for (std::size_t p = 0; p < suite.size(); ++p) {
      const verif::TestSpec spec = sized(suite[p]);
      verif::TestbenchOptions opts;
      opts.model = ModelKind::kBca;
      opts.seed = 1;
      opts.max_cycles = plan.max_cycles;
      const RunResult full = verif::Testbench(configs[c], spec, opts).run();
      expect_same_result(res.outcomes[2 * p + 1].result, full,
                         configs[c].name + "/" + spec.name);
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, configs.size() * 12);
  EXPECT_EQ(counter_value("regress.replay_proved"), pairs);
  EXPECT_EQ(counter_value("regress.replay_fallbacks"), 0u);
  EXPECT_EQ(counter_value("regress.alignments"), pairs);
  // A proved pair records one view only.
  EXPECT_EQ(counter_value("vcd.recordings"), pairs);
}

// A report with the two recording counters blanked: a forced replay that
// proves a pair records its BCA view no more.
std::string without_recording_counts(std::string json) {
  static const std::regex kCounts(
      "\"vcd\\.(recordings|recorded_changes)\": [0-9]+");
  return std::regex_replace(json, kCounts, "\"vcd.$1\": _");
}

// Under each C3 fault the campaign derives closed-loop BCA views; forcing
// the replay must give the same reports and results, with some pairs
// proved and others falling back to the closed loop.
TEST(ReplayProof, ForcedReplayMatchesClosedLoopUnderEachC3Fault) {
  const auto configs = shipped_configs();
  std::uint64_t proved = 0, fallbacks = 0;
  for (const char* fault :
       {"lru_stale_on_chunk", "grant_during_lock", "byte_enable_dropped",
        "response_src_swap", "opcode_corrupt_on_busy"}) {
    regress::RunPlan plan = replay_plan();
    plan.jobs = 1;
    plan.max_cycles = 5000;  // some faults deadlock the BCA view
    ASSERT_TRUE(regress::set_fault_by_name(plan.faults, fault));
    regress::MatrixResult full, forced;
    {
      MetricsGuard guard;
      full = regress::Regression::run_matrix(configs, plan);
      EXPECT_EQ(counter_value("regress.replay_proved"), 0u) << fault;
    }
    {
      MetricsGuard guard;
      forced = regress::Regression::run_matrix_replay_for_testing(configs, plan);
      proved += counter_value("regress.replay_proved");
      fallbacks += counter_value("regress.replay_fallbacks");
    }
    // The reports embed the stable metrics: a proved replay publishes the
    // closed loop's sim.* and stba.* counters, a diverged one nothing.
    EXPECT_EQ(without_recording_counts(forced.json(/*with_timing=*/false)),
              without_recording_counts(full.json(/*with_timing=*/false)))
        << fault;
    ASSERT_EQ(forced.results.size(), full.results.size());
    for (std::size_t c = 0; c < full.results.size(); ++c) {
      const auto& ro = forced.results[c].outcomes;
      const auto& fo = full.results[c].outcomes;
      ASSERT_EQ(ro.size(), fo.size());
      for (std::size_t u = 0; u < fo.size(); ++u) {
        expect_same_result(ro[u].result, fo[u].result,
                           std::string(fault) + "/" + configs[c].name + "/" +
                               fo[u].test + "/" + verif::to_string(fo[u].model));
      }
    }
  }
  EXPECT_GT(proved, 0u);
  EXPECT_GT(fallbacks, 0u);
}

// Under each C3 fault, every pair's replay decides what the closed loop's
// two recordings decide, and a replay that diverges names the first cycle
// on which the recordings differ.
TEST(ReplayProof, DivergenceMatchesClosedLoopUnderEachC3Fault) {
  const auto configs = shipped_configs();
  std::size_t proofs = 0, divergences = 0;
  for (const char* fault :
       {"lru_stale_on_chunk", "grant_during_lock", "byte_enable_dropped",
        "response_src_swap", "opcode_corrupt_on_busy"}) {
    bca::Faults faults;
    ASSERT_TRUE(regress::set_fault_by_name(faults, fault));
    for (const auto& cfg : configs) {
      for (const auto& test : verif::catg_test_suite()) {
        const verif::TestSpec spec = sized(test);
        const std::string where = std::string(fault) + "/" + cfg.name + "/" +
                                  spec.name;
        const Recorded rtl = record(cfg, spec, ModelKind::kRtl, {}, 5000);
        const Recorded bca = record(cfg, spec, ModelKind::kBca, faults, 5000);
        const regress::BcaReplay r = replay(cfg, spec, rtl, faults);
        const bool equal = rtl.trace == bca.trace;
        EXPECT_EQ(r.proved, equal) << where;
        if (equal) {
          ++proofs;
          EXPECT_EQ(r.evaluations, bca.result.evaluations) << where;
        } else {
          ++divergences;
          EXPECT_EQ(r.divergence, first_difference(rtl.trace, bca.trace))
              << where;
        }
      }
    }
  }
  EXPECT_GT(proofs, 0u);
  EXPECT_GT(divergences, 0u);
}

// A proved pair's report comes from the replay's own walk of the RTL log
// (its cells) and the replay's own pins (the port fields): it must equal
// byte for byte what comparing the recording with itself reports, and
// build no per-variable index.
TEST(ReplayProof, ProvedReportEqualsCompareOfTheRecordingWithItself) {
  MetricsGuard guard;
  auto configs = shipped_configs();
  for (const auto& c : c2_shapes()) configs.push_back(c);
  for (const auto& cfg : configs) {
    for (const auto& test : verif::catg_test_suite()) {
      const verif::TestSpec spec = sized(test);
      const std::string where = cfg.name + "/" + spec.name;
      const Recorded rtl = record(cfg, spec, ModelKind::kRtl);
      const regress::BcaReplay r = replay(cfg, spec, rtl);
      ASSERT_TRUE(r.proved) << where;
      const auto ports =
          alignment_ports(verif::test_config(cfg, spec));
      const std::uint64_t indexes = counter_value("vcd.track_indexes");
      const stba::AlignmentReport proved = stba::Analyzer::proved_report(
          rtl.trace, ports, r.port_fields, r.cells);
      EXPECT_EQ(counter_value("vcd.track_indexes"), indexes) << where;
      EXPECT_EQ(r.port_fields,
                stba::Analyzer::resolve_ports(rtl.trace, ports))
          << where;
      const stba::AlignmentReport self =
          stba::Analyzer::compare(rtl.trace, rtl.trace, ports);
      EXPECT_EQ(proved.json(), self.json()) << where;
      EXPECT_EQ(proved.summary(), self.summary()) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// The replay's decision on hand-built pairs. The runner settles the BCA
// view from the RTL one on a proof and re-runs it in the closed loop
// otherwise.
// ---------------------------------------------------------------------------

// A copy of `t`, made by driving its values into a context of its own and
// recording them, with the one-bit variable `var` inverted on cycle `at`
// alone (at = 0: no edit). Same variable table, so a pair with `t`
// differs only where the edit says.
vcd::Trace retrace(const vcd::Trace& t, int var, std::uint64_t at) {
  sim::Context ctx;
  std::vector<std::unique_ptr<sim::SignalBase>> sigs;
  for (const auto& v : t.vars()) {
    if (v.width <= 64) {
      sigs.push_back(std::make_unique<sim::SignalU64>(ctx, v.name, v.width));
    } else {
      sigs.push_back(std::make_unique<sim::SignalBits>(ctx, v.name, v.width));
    }
  }
  vcd::Recorder rec;
  ctx.attach_tracer(&rec);
  auto e = t.begin();
  for (std::uint64_t c = 0; c <= t.max_time() + 1; ++c) {
    for (; e != t.end() && (*e).time == c; ++e) {
      sigs[static_cast<std::size_t>((*e).var)]->write_words(
          (*e).value.words());
    }
    if (at != 0 && (c == at || c == at + 1)) {
      std::uint64_t w = t.value_at(var, c).words()[0];
      if (c == at) w ^= 1;
      sigs[static_cast<std::size_t>(var)]->write_words(&w);
    }
    if (c == 0) {
      ctx.initialize();
    } else {
      ctx.step();
    }
  }
  return rec.take();
}

// The RTL view of t08 on the programmable-arbiter C2 shape, whose
// programming port carries the test's priority writes.
struct ProgPair {
  stbus::NodeConfig cfg;
  verif::TestSpec spec;
  Recorded rtl;
};

ProgPair prog_pair() {
  ProgPair p;
  p.cfg = c2_shapes().front();
  p.spec = sized(verif::t08_programmable_priority());
  p.rtl = record(p.cfg, p.spec, ModelKind::kRtl);
  return p;
}

// The first cycle after 0 on which `var` of `t` holds 1.
std::uint64_t first_high(const vcd::Trace& t, int var) {
  const vcd::Trace::ChangeList changes = t.changes(var);
  for (std::size_t k = 0; k < changes.size(); ++k) {
    if (changes[k].time > 0 && changes[k].value.is_one()) {
      return changes[k].time;
    }
  }
  return 0;
}

TEST(LeanBcaSettle, IdenticalBundlesCopyThePassiveVerdict) {
  const ProgPair p = prog_pair();
  ASSERT_TRUE(retrace(p.rtl.trace, 0, 0) == p.rtl.trace);
  const regress::BcaReplay r = replay(p.cfg, p.spec, p.rtl);
  ASSERT_TRUE(r.proved);
  const Recorded full = record(p.cfg, p.spec, ModelKind::kBca);
  ASSERT_TRUE(full.trace == p.rtl.trace);
  expect_same_result(regress::settle_replayed_bca(p.rtl.result, r.evaluations),
                     full.result, "settled");
}

// The alignment ports are aligned on every cycle, but the programming
// port's grant differs on one cycle: the recordings are not equal, so the
// replay diverges on that cycle and the view re-runs.
TEST(LeanBcaSettle, DifferingProgrammingPortReRuns) {
  const ProgPair p = prog_pair();
  const int gnt = *p.rtl.trace.find("tb.prog.gnt");
  const std::uint64_t at = first_high(p.rtl.trace, gnt);
  ASSERT_GT(at, 0u);
  vcd::Trace edited = retrace(p.rtl.trace, gnt, at);
  bool equal = true;
  const auto rep = stba::Analyzer::compare(
      edited, p.rtl.trace, alignment_ports(verif::test_config(p.cfg, p.spec)),
      &equal);
  EXPECT_FALSE(equal);
  EXPECT_EQ(rep.min_rate(), 1.0);
  EXPECT_EQ(first_difference(edited, p.rtl.trace), at);
  const Recorded pair = {std::move(edited), p.rtl.result};
  const regress::BcaReplay r = replay(p.cfg, p.spec, pair);
  EXPECT_FALSE(r.proved);
  EXPECT_EQ(r.divergence, at);
}

// The replay runs the RTL view's cycles: a recording that goes on past
// them does not prove the pair.
TEST(LeanBcaSettle, UnequalCyclesReRun) {
  ProgPair p = prog_pair();
  const std::uint64_t last = p.rtl.trace.max_time();
  ASSERT_GT(last, 1u);
  p.rtl.result.cycles = last - 1;
  const regress::BcaReplay r = replay(p.cfg, p.spec, p.rtl);
  EXPECT_FALSE(r.proved);
  EXPECT_EQ(r.divergence, last);
}

TEST(LeanBcaSettle, DifferingAlignmentPortsReRun) {
  ProgPair p = prog_pair();
  const int gnt = *p.rtl.trace.find("tb.init0.gnt");
  const std::uint64_t at = first_high(p.rtl.trace, gnt);
  ASSERT_GT(at, 0u);
  p.rtl.trace = retrace(p.rtl.trace, gnt, at);
  const regress::BcaReplay r = replay(p.cfg, p.spec, p.rtl);
  EXPECT_FALSE(r.proved);
  EXPECT_EQ(r.divergence, at);
}

}  // namespace
}  // namespace crve

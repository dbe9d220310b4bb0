// Lean BCA view jobs (DESIGN.md §8): in an aligned campaign a BCA view job
// runs only the active side of its environment, and the pair's align step
// settles its result from the RTL view's when the recordings prove the
// pins identical, or re-runs it with the full environment. A settled
// result must equal a full-environment run field by field.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics_guard.h"
#include "obs/metrics.h"
#include "regress/config_file.h"
#include "regress/job_spec.h"
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

regress::RunPlan lean_plan() {
  regress::RunPlan plan;
  plan.seeds = {1};
  plan.n_transactions = 20;
  plan.jobs = 2;
  return plan;
}

std::vector<stbus::NodeConfig> shipped_configs() {
  return regress::configs_from_dir(CRVE_SOURCE_DIR "/configs");
}

// Every shipped config (one has a programming port, and t08 drives one on
// the others) x the CATG suite: each BCA view runs lean, every pair takes
// the proof, and each settled result equals a full-environment BCA run.
TEST(LeanBca, SettledResultEqualsFullEnvironmentOnShippedConfigs) {
  MetricsGuard guard;
  const auto configs = shipped_configs();
  ASSERT_FALSE(configs.empty());
  const regress::RunPlan plan = lean_plan();
  const regress::MatrixResult m = regress::Regression::run_matrix(configs, plan);
  ASSERT_TRUE(m.all_signed_off);
  std::size_t pairs = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const regress::RegressionResult& res = m.results[c];
    const auto suite = verif::catg_test_suite();
    ASSERT_EQ(res.outcomes.size(), 2 * suite.size());
    for (std::size_t p = 0; p < suite.size(); ++p) {
      verif::TestSpec spec = suite[p];
      spec.n_transactions = plan.n_transactions;
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
  EXPECT_EQ(counter_value("regress.lean_settled"), pairs);
  EXPECT_EQ(counter_value("regress.lean_reruns"), 0u);
}

// Under each C3 fault the campaign derives full BCA environments; forcing
// the lean path must give the same results through the settle step, with
// the proof taken by some pairs and the re-run by others.
TEST(LeanBca, ForcedLeanMatchesFullUnderEachC3Fault) {
  const auto configs = shipped_configs();
  std::uint64_t settled = 0, reruns = 0;
  for (const char* fault :
       {"lru_stale_on_chunk", "grant_during_lock", "byte_enable_dropped",
        "response_src_swap", "opcode_corrupt_on_busy"}) {
    regress::RunPlan plan = lean_plan();
    plan.jobs = 1;
    plan.max_cycles = 5000;  // some faults deadlock the BCA view
    ASSERT_TRUE(regress::set_fault_by_name(plan.faults, fault));
    regress::MatrixResult full, lean;
    {
      MetricsGuard guard;
      full = regress::Regression::run_matrix(configs, plan);
    }
    {
      MetricsGuard guard;
      lean = regress::Regression::run_matrix_lean_bca_for_testing(configs, plan);
      settled += counter_value("regress.lean_settled");
      reruns += counter_value("regress.lean_reruns");
    }
    // The reports embed the stable metrics: a re-run publishes nothing.
    EXPECT_EQ(lean.json(/*with_timing=*/false),
              full.json(/*with_timing=*/false))
        << fault;
    ASSERT_EQ(lean.results.size(), full.results.size());
    for (std::size_t c = 0; c < full.results.size(); ++c) {
      const auto& lo = lean.results[c].outcomes;
      const auto& fo = full.results[c].outcomes;
      ASSERT_EQ(lo.size(), fo.size());
      for (std::size_t u = 0; u < fo.size(); ++u) {
        expect_same_result(lo[u].result, fo[u].result,
                           std::string(fault) + "/" + configs[c].name + "/" +
                               fo[u].test + "/" + verif::to_string(fo[u].model));
      }
    }
  }
  EXPECT_GT(settled, 0u);
  EXPECT_GT(reruns, 0u);
}

// ---------------------------------------------------------------------------
// The settle step on hand-built recordings.
// ---------------------------------------------------------------------------

stbus::RequestCell st4(std::uint32_t add) {
  stbus::RequestCell c;
  c.opc = stbus::Opcode::kSt4;
  c.add = add;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = true;
  return c;
}

// A recording of one STBus port and a programming port over `cycles`
// cycles; `prog_add` is the address of the request held on the
// programming port from cycle 2.
vcd::Trace record(std::uint64_t cycles, std::uint32_t prog_add) {
  sim::Context ctx;
  stbus::NodeConfig cfg;
  cfg.bus_bytes = 4;
  cfg.validate_and_normalize();
  stbus::PortPins port(ctx, verif::Testbench::initiator_port_name(0), cfg);
  stbus::PortPins prog(ctx, verif::Testbench::prog_port_name(), 4);
  vcd::Recorder rec;
  ctx.attach_tracer(&rec);
  ctx.initialize();
  port.drive_request(st4(0x40));
  ctx.step(2);
  prog.drive_request(st4(prog_add));
  ctx.step(static_cast<int>(cycles) - 2);
  return rec.take();
}

RunResult result_with(std::uint64_t cycles, std::uint64_t violations,
                      std::uint64_t digest) {
  RunResult r;
  r.completed = true;
  r.cycles = cycles;
  r.evaluations = 7 * cycles;
  r.checker_violations = violations;
  for (std::uint64_t k = 0; k < violations; ++k) {
    r.violations.push_back({k, "prog", "T1_HOLD", "held"});
  }
  r.coverage_percent = 50.0;
  r.coverage_digest = digest;
  r.utilisation.push_back({"init0", 3, 1, 1});
  r.request_packets = 1;
  r.request_opcode_cells[3] = 1;
  return r;
}

// The decision the runner hands settle_lean_bca: whether the pair's
// recordings are equal, as Analyzer::compare over the alignment port
// decides it. `aligned` receives that port's rate.
bool recordings_equal(const vcd::Trace& a, const vcd::Trace& b,
                      double* aligned = nullptr) {
  bool equal = false;
  const auto rep = stba::Analyzer::compare(
      a, b, {verif::Testbench::initiator_port_name(0)}, &equal);
  if (aligned != nullptr) *aligned = rep.min_rate();
  return equal;
}

TEST(LeanBcaSettle, IdenticalBundlesCopyThePassiveVerdict) {
  const vcd::Trace a = record(10, 0x8);
  const vcd::Trace b = record(10, 0x8);
  const RunResult rtl = result_with(10, 2, 0xabc);
  RunResult bca;
  bca.completed = true;
  bca.cycles = 10;
  bca.evaluations = 71;
  ASSERT_TRUE(regress::settle_lean_bca(recordings_equal(a, b), rtl, bca));
  RunResult expect = rtl;
  expect.evaluations = 71;  // the BCA view's own
  expect_same_result(bca, expect, "settled");
}

// The alignment port is aligned on every cycle, but the programming port
// differs: the recordings are not equal, so the view re-runs.
TEST(LeanBcaSettle, DifferingProgrammingPortReRuns) {
  const vcd::Trace a = record(10, 0x8);
  const vcd::Trace b = record(10, 0xc);
  double aligned = 0.0;
  const bool equal = recordings_equal(a, b, &aligned);
  EXPECT_EQ(aligned, 1.0);
  EXPECT_FALSE(equal);
  const RunResult rtl = result_with(10, 1, 0xabc);
  RunResult bca = result_with(10, 0, 0);
  EXPECT_FALSE(regress::settle_lean_bca(equal, rtl, bca));
  expect_same_result(bca, result_with(10, 0, 0), "left as it was");
}

TEST(LeanBcaSettle, UnequalCyclesReRun) {
  const vcd::Trace a = record(10, 0x8);
  const vcd::Trace b = record(10, 0x8);
  const RunResult rtl = result_with(10, 0, 0xabc);
  RunResult bca = result_with(11, 0, 0);
  EXPECT_FALSE(regress::settle_lean_bca(recordings_equal(a, b), rtl, bca));
  EXPECT_EQ(bca.coverage_digest, 0u);
}

TEST(LeanBcaSettle, DifferingAlignmentPortsReRun) {
  const RunResult rtl = result_with(10, 0, 0xabc);
  RunResult bca = result_with(10, 0, 0);
  EXPECT_FALSE(
      regress::settle_lean_bca(/*recordings_equal=*/false, rtl, bca));
  EXPECT_EQ(bca.coverage_digest, 0u);
}

}  // namespace
}  // namespace crve

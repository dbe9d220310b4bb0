// Regression runner (paper Fig. 4 / Fig. 5).
//
// Implements the common verification flow end-to-end for one node
// configuration: build the testbench for each view, run the same test suite
// with the same seeds on both, collect verification and coverage reports,
// dump VCD waveforms, and — once both views pass — call STBA for the
// bus-accurate comparison. The sign-off criteria are the paper's: all
// checks green on both views, identical functional coverage, and >= 99%
// alignment at every port.
//
// The (test, seed, view) job matrix is sharded across a thread pool
// (RunPlan::jobs workers). Every job owns its testbench, RNG stream and
// artifact files, and writes its result into a pre-sized slot, so the
// outcome order, every aggregate and the JSON report are bit-identical to
// the serial run. Regression::run_matrix batches several configurations
// (e.g. a whole configs/ directory) through one shared pool.
//
// With RunPlan::cache_dir set, every pair job is keyed by the SHA-256 of
// its canonical JobSpec (config content, test, seed, views, build
// provenance) in a content-addressed result cache (DESIGN.md §13): cache
// hits replay into their slots, only the missing pairs run on the pool, and
// the same slot-ordered reduce merges both, so a warm-cache report is
// byte-identical to the cold run modulo the `cached` provenance fields.
// plan_matrix is the planner's dry run: it lists the pairs a campaign would
// simulate, with their cache keys, and runs nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bca/faults.h"
#include "obs/txn_trace.h"
#include "stba/analyzer.h"
#include "stbus/config.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve::regress {

// Artifact-name component sanitizer: any byte outside [A-Za-z0-9._-]
// becomes '_', so test names containing '/' or spaces cannot escape the
// artifact directory or produce unopenable paths. Applied to every
// `<kind>_<test>_s<seed>...` artifact the runner writes (reports, flight
// dumps, triage, profiles, txn traces). Identity for the CATG suite names.
std::string sanitize_artifact_name(const std::string& name);

class ProgressTracker;  // regress/progress.h

// Elaboration-time design-health row for the dashboard, one per
// (config, view). Plain data deliberately mirroring lint::DesignSummary
// without depending on it: the design-lint preflight lives in the CLI (the
// crve_design_lint library sits above this one), which fills
// RunPlan::design_health after the gate passes; run_matrix just threads the
// rows through to MatrixResult for html_report.
struct DesignHealth {
  std::string config;
  std::string view;  // "RTL" / "BCA"
  std::size_t signals = 0;
  std::size_t comb_processes = 0;
  std::size_t clocked_processes = 0;
  std::size_t ranks = 0;
  std::size_t max_fanout = 0;
  std::string max_fanout_signal;
  int errors = 0;
  int warnings = 0;
  int notes = 0;
};

struct RunPlan {
  stbus::NodeConfig cfg;
  std::vector<verif::TestSpec> tests;  // empty = full CATG suite
  // Simulation kernel used for every job in the campaign (`--sim-kernel`).
  sim::KernelKind kernel = sim::KernelKind::kCompiled;
  std::vector<std::uint64_t> seeds = {1};
  int n_transactions = 0;  // 0 = keep each test's default
  // Artifact directory for VCD dumps and text reports; empty = in-memory.
  std::string out_dir;
  bool run_alignment = true;
  double alignment_threshold = 0.99;
  bca::Faults faults;  // injected into the BCA runs
  std::uint64_t max_cycles = 500000;
  // Worker threads the (test, seed, view) jobs are sharded across.
  // 1 = serial (the default), 0 = one worker per hardware thread.
  unsigned jobs = 1;
  // When a pair misses its alignment threshold and artifacts go to disk,
  // run the stba::Triage deep-dive and write `triage_<test>_s<seed>.json`
  // plus windowed VCD excerpts of both views around the first divergence.
  bool run_triage = true;
  // Half-width, in cycles, of the excerpt window around the divergence.
  std::uint64_t triage_window = 50;
  // Content-addressed result cache (DESIGN.md §13). Empty = no cache. When
  // set, pair jobs whose JobSpec hash is present replay from the cache
  // instead of simulating; missing pairs are stored after they run.
  std::string cache_dir;
  // Cache size budget in MiB (LRU eviction on store); 0 = unbounded.
  std::uint64_t cache_max_mb = 0;
  // Kernel hotspot profiler (DESIGN.md §15). Non-empty: every job runs with
  // the per-process profiler enabled, per-job `profile_<test>_s<seed>_
  // <view>.json` artifacts land in out_dir, and the campaign-level merged
  // hotspot report is written to this path. Deliberately absent from
  // JobSpec: profiling never perturbs the cache key, so a profiled rerun
  // still replays its hits (replayed pairs simply contribute no samples).
  std::string profile_out;
  // Transaction-lifecycle tracing (DESIGN.md §16). Non-empty: every job runs
  // with the txn tracer enabled, per-job `txn_<test>_s<seed>_<view>.json`
  // span artifacts plus `.trace.json` Chrome trace-event files land in
  // out_dir, and the campaign-level merged latency report (histograms,
  // top-K slowest table, dual-view delta join) is written to this path.
  // Like profile_out, deliberately absent from JobSpec: tracing never
  // perturbs the cache key (replayed pairs contribute no spans).
  std::string txn_trace_out;
  // Streaming campaign telemetry (--progress-out / --progress); not owned.
  // The runner emits job lifecycle events through it; null = no telemetry.
  ProgressTracker* progress = nullptr;
  // Design-lint summaries from the CLI preflight (empty when the gate was
  // skipped); rendered by the dashboard as the "Design health" panel.
  std::vector<DesignHealth> design_health;
};

struct TestOutcome {
  std::string test;
  std::uint64_t seed = 0;
  verif::ModelKind model{};
  verif::RunResult result;
  double wall_ms = 0.0;  // wall-clock time of this one job
  // Replayed from the campaign cache instead of simulated. The wall_ms of
  // a replayed outcome is the original run's, preserved in the payload.
  bool cached = false;
};

struct AlignmentOutcome {
  std::string test;
  std::uint64_t seed = 0;
  stba::AlignmentReport report;
  double wall_ms = 0.0;  // wall-clock time of the STBA comparison
  bool cached = false;   // replayed from the campaign cache
};

struct RegressionResult {
  std::string config_name;
  std::vector<TestOutcome> outcomes;
  std::vector<AlignmentOutcome> alignments;
  bool rtl_passed = false;
  bool bca_passed = false;
  bool coverage_match = false;  // per-(test,seed) digests equal across views
  double min_alignment = 1.0;
  double mean_coverage_rtl = 0.0;
  double alignment_threshold = 0.99;
  bool signed_off = false;
  double wall_ms = 0.0;  // whole-campaign wall clock
  // Deterministic (kStable-only) obs-registry snapshot taken at campaign
  // end when metrics collection is enabled; empty otherwise. Empty = the
  // "metrics" section is omitted from json(), preserving the byte-identical
  // report guarantee for uninstrumented runs. The registry is process-wide
  // and accumulating, so this reflects everything recorded since the last
  // registry().reset(). Only Regression::run fills it (run_matrix campaigns
  // share one registry; see MatrixResult::metrics_json).
  std::string metrics_json;
  // Pair jobs replayed from the campaign cache (0 = fully simulated). When
  // non-zero the report carries a "cache" section with the originating
  // build stamp, and every replayed run/alignment entry is marked
  // "cached": true — provenance the baseline differ reads as a note, not
  // as drift.
  std::size_t cached_pairs = 0;
  // Originating build stamp of the replayed entries (pretty JSON object,
  // inner lines at column 0); empty when cached_pairs == 0.
  std::string cache_build_json;
  // Merged per-process hotspot profile across every freshly simulated job
  // (RunPlan::profile_out); empty when profiling was off. Not part of
  // json() — the profiler writes its own artifact — so report.json stays
  // byte-identical whether or not the campaign was profiled.
  obs::ProfileData profile;
  // Merged transaction-latency aggregate and the per-pair dual-view delta
  // join across the campaign (RunPlan::txn_trace_out); empty when tracing
  // was off, which also omits the optional "txn_latency" report section.
  obs::TxnTraceData txn;
  obs::TxnDeltaStats txn_delta;

  std::string summary() const;
  // Machine-readable report (schema in DESIGN.md). with_timing=false omits
  // every wall-clock field; everything that remains is deterministic, so the
  // report is byte-identical for any RunPlan::jobs value.
  std::string json(bool with_timing = true) const;
};

// Result of a multi-configuration batch (Regression::run_matrix).
struct MatrixResult {
  std::vector<RegressionResult> results;  // one per config, input order
  bool all_signed_off = false;
  unsigned jobs = 1;      // resolved worker count the batch ran with
  double wall_ms = 0.0;   // whole-batch wall clock
  // Batch-level analog of RegressionResult::metrics_json (the configs share
  // one process-wide registry, so the snapshot lives here, not per config).
  std::string metrics_json;
  // Flat JSON object of cache hit/miss/store/evict counters (CacheStats
  // schema) when the batch ran with a cache; empty otherwise.
  std::string cache_stats_json;
  // Batch-level merge of every config's profile (RunPlan::profile_out);
  // empty when profiling was off.
  obs::ProfileData profile;
  // Batch-level merge of every config's transaction-latency aggregate and
  // delta join (RunPlan::txn_trace_out); empty when tracing was off.
  obs::TxnTraceData txn;
  obs::TxnDeltaStats txn_delta;
  // Copied from RunPlan::design_health; empty = no "Design health" panel in
  // the dashboard (keeps pre-existing dashboards byte-identical).
  std::vector<DesignHealth> design_health;

  std::string summary() const;
  std::string json(bool with_timing = true) const;
};

struct JobSpec;  // regress/job_spec.h

// The planner's dry run of a batch (Regression::plan_matrix): which pair
// jobs the cache cannot satisfy.
struct MatrixPlan {
  std::vector<JobSpec> missing;  // config order, then (test, seed) order
  std::size_t total_pairs = 0;
  std::size_t cached_pairs = 0;
};

class Regression {
 public:
  static RegressionResult run(const RunPlan& plan);

  // Batch entry point: runs `base` against every configuration, sharding
  // the whole (config, test, seed, view) matrix across one pool of
  // base.jobs workers. base.cfg is ignored; when base.out_dir is set each
  // configuration gets an isolated `<out_dir>/<config name>` artifact
  // directory and the batch report is written to `<out_dir>/report.json`.
  static MatrixResult run_matrix(const std::vector<stbus::NodeConfig>& configs,
                                 const RunPlan& base);

  // Test-only: run_matrix() with the BCA views of an aligned campaign
  // replayed even under base.faults, so tests can drive the replay's
  // fallback to the closed loop. Campaigns otherwise derive the choice
  // (DESIGN.md §8).
  static MatrixResult run_matrix_replay_for_testing(
      const std::vector<stbus::NodeConfig>& configs, const RunPlan& base);

  // The planner's dry run: hash every pair job of the batch, probe the
  // cache (base.cache_dir; without one everything is missing) and return
  // the specs of the pairs a campaign would simulate. Simulates nothing
  // and writes no artifact.
  static MatrixPlan plan_matrix(const std::vector<stbus::NodeConfig>& configs,
                                const RunPlan& base);
};

}  // namespace crve::regress

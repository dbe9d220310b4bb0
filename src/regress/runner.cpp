#include "regress/runner.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>

#include "cache/cache.h"
#include "common/build_info.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "regress/config_file.h"
#include "regress/html_report.h"
#include "regress/job_spec.h"
#include "regress/progress.h"
#include "stba/triage.h"
#include "vcd/excerpt.h"
#include "vcd/recorder.h"

namespace crve::regress {

using verif::ModelKind;
using verif::RunResult;
using verif::Testbench;
using verif::TestbenchOptions;
using verif::TestSpec;

std::string sanitize_artifact_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The configuration a (config, test) job's Testbench elaborates.
stbus::NodeConfig job_config(stbus::NodeConfig cfg, const TestSpec& spec) {
  if (spec.adjust) spec.adjust(cfg);
  if (spec.prog) cfg.programming_port = true;
  cfg.validate_and_normalize();
  return cfg;
}

// Environment-side port prefixes to align for a job's configuration.
std::vector<std::string> alignment_ports(const stbus::NodeConfig& cfg) {
  std::vector<std::string> ports;
  for (int i = 0; i < cfg.n_initiators; ++i) {
    ports.push_back(Testbench::initiator_port_name(i));
  }
  for (int t = 0; t < cfg.n_targets; ++t) {
    ports.push_back(Testbench::target_port_name(t));
  }
  return ports;
}

void write_text(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
}

std::string run_report(const TestOutcome& o) {
  std::ostringstream os;
  os << "test " << o.test << " seed " << o.seed << " model "
     << verif::to_string(o.model) << "\n";
  os << "  completed: " << (o.result.completed ? "yes" : "NO") << " in "
     << o.result.cycles << " cycles\n";
  os << "  checker violations: " << o.result.checker_violations << "\n";
  for (const auto& v : o.result.violations) {
    os << "    @" << v.cycle << " " << v.port << " [" << v.rule << "] "
       << v.message << "\n";
  }
  os << "  scoreboard errors: " << o.result.scoreboard_errors << "\n";
  for (const auto& e : o.result.sb_errors) {
    os << "    @" << e.cycle << " " << e.where << " " << e.message << "\n";
  }
  os << "  functional coverage: " << o.result.coverage_percent << "%\n";
  os << "  port utilisation (busy cycles / packets in / packets out):\n";
  for (const auto& u : o.result.utilisation) {
    os << "    " << u.port << ": " << u.busy_cycles << " / "
       << u.request_packets << " / " << u.response_packets << "\n";
  }
  return os.str();
}

// One configuration's expanded campaign while its jobs are in flight.
//
// Pair p = test_index * n_seeds + seed_index and unit u = 2*p + view
// (view 0 = RTL, 1 = BCA) — exactly the serial visit order. Every job
// writes into its own pre-sized slot, so the reduction reads results in
// serial order no matter which worker ran what. A pair's alignment is no
// separate job: whichever view job finishes the pair second runs it
// (run_job), then frees both recordings.
//
// In an aligned campaign that injects no BCA fault and traces no
// transactions, a BCA view job runs lean: only the active side that drives
// the pins (TestbenchOptions::drop_passive_environment). The pair's align
// step then settles the BCA result from the RTL view's (settle_lean_bca),
// or re-runs the BCA view with its full environment when the recordings
// do not prove the pins identical. Everything that reads the BCA verdict
// (its report, log line, counters, flight-recorder dump and job_finish
// event) waits for the settled result (finish_unit).
struct Campaign {
  RunPlan plan;
  std::vector<TestSpec> tests;
  std::size_t n_pairs = 0;
  std::vector<TestOutcome> outcomes;    // one slot per unit
  std::vector<vcd::Trace> traces;       // recorded trace per unit, until
                                        // its pair is aligned
  std::vector<AlignmentOutcome> aligns;  // one slot per pair
  // Views of each pair still running. The acq_rel decrement that reaches
  // zero makes both views' slots visible to the job that aligns the pair.
  std::unique_ptr<std::atomic<int>[]> views_pending;
  // Cache planning state: pair_cached[p] marks a pair the planner replayed
  // from the cache (its slots are already filled); missing_units are the
  // view jobs that still have to run. Without a cache the list covers the
  // whole campaign.
  std::vector<char> pair_cached;
  std::vector<std::size_t> missing_units;
  std::string cache_build_json;  // originating build of the replayed pairs
  // BCA view jobs start lean (see above). bca_full is raised by the first
  // pair whose proof fails, so later BCA jobs of the campaign run their
  // full environment from the start: a near-miss BCA model costs one
  // re-run per campaign (plus, with several workers, the lean jobs
  // already under way), not one per pair. Settled results equal full
  // ones, so no result depends on when it flips.
  bool lean_bca = false;
  std::atomic<bool> bca_full{false};
  std::vector<char> bca_unsettled;  // per pair: the BCA view ran lean

  void prepare() {
    tests = plan.tests.empty() ? verif::catg_test_suite() : plan.tests;
    n_pairs = tests.size() * plan.seeds.size();
    outcomes.resize(2 * n_pairs);
    if (plan.run_alignment) {
      traces.resize(2 * n_pairs);
      aligns.resize(n_pairs);
      bca_unsettled.assign(n_pairs, 0);
    }
    lean_bca = plan.run_alignment && !plan.faults.any() &&
               plan.txn_trace_out.empty();
    views_pending = std::make_unique<std::atomic<int>[]>(n_pairs);
    for (std::size_t p = 0; p < n_pairs; ++p) views_pending[p] = 2;
    pair_cached.assign(n_pairs, 0);
    missing_units.clear();
    for (std::size_t p = 0; p < n_pairs; ++p) {
      missing_units.push_back(2 * p);
      missing_units.push_back(2 * p + 1);
    }
    if (!plan.out_dir.empty()) {
      std::filesystem::create_directories(plan.out_dir);
    }
  }

  const TestSpec& spec_of(std::size_t pair) const {
    return tests[pair / plan.seeds.size()];
  }
  std::uint64_t seed_of(std::size_t pair) const {
    return plan.seeds[pair % plan.seeds.size()];
  }
  std::string stem_of(std::size_t pair) const {
    return sanitize_artifact_name(spec_of(pair).name) + "_s" +
           std::to_string(seed_of(pair));
  }

  // A view job's test and options, before any recorder or wave target.
  TestSpec sized_spec(std::size_t pair) const {
    TestSpec s = spec_of(pair);
    if (plan.n_transactions > 0) s.n_transactions = plan.n_transactions;
    return s;
  }
  TestbenchOptions view_options(std::size_t pair, ModelKind model) const {
    TestbenchOptions opts;
    opts.model = model;
    opts.kernel = plan.kernel;
    opts.seed = seed_of(pair);
    opts.max_cycles = plan.max_cycles;
    opts.profile = !plan.profile_out.empty();
    opts.txn_trace = !plan.txn_trace_out.empty();
    if (model != ModelKind::kRtl) opts.faults = plan.faults;
    return opts;
  }

  // Runs one view job; when it is the pair's second view to finish (and
  // the campaign aligns), aligns the pair right away.
  void run_job(std::size_t unit) {
    run_unit(unit);
    if (!plan.run_alignment) return;
    const std::size_t pair = unit / 2;
    if (views_pending[pair].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      run_alignment(pair);
    }
  }

  // Runs one (test, seed, view) job into its slot. A lean BCA view job
  // leaves its unit unfinished for the pair's settle step.
  void run_unit(std::size_t unit) {
    const std::size_t pair = unit / 2;
    const int m = static_cast<int>(unit % 2);
    const TestSpec& spec = spec_of(pair);
    const std::uint64_t seed = seed_of(pair);
    const ModelKind model = m == 0 ? ModelKind::kRtl : ModelKind::kBca;
    const std::string view = m == 0 ? "rtl" : "bca";

    obs::SpanGuard job_span("job");
    if (obs::tracing_enabled()) {
      job_span.set_detail(plan.cfg.name + ":" + spec.name + ":s" +
                          std::to_string(seed) + ":" + view);
    }

    TestbenchOptions opts = view_options(pair, model);
    const bool lean = model == ModelKind::kBca && lean_bca &&
                      !bca_full.load(std::memory_order_relaxed);
    if (lean) opts.drop_passive_environment();
    // Alignment reads the in-process recording; the full VCD is written
    // only as an on-disk artifact.
    vcd::Recorder recorder;
    if (plan.run_alignment) opts.recorder = &recorder;
    if (!plan.out_dir.empty()) {
      opts.vcd_path = plan.out_dir + "/" + stem_of(pair) + "_" + view + ".vcd";
    }

    if (plan.progress) {
      plan.progress->job_start(plan.cfg.name, spec.name, seed, view);
    }
    const auto t0 = Clock::now();
    std::optional<Testbench> tb;
    RunResult r;
    try {
      {
        CRVE_SPAN("build");
        tb.emplace(plan.cfg, sized_spec(pair), opts);
      }
      {
        CRVE_SPAN("sim");
        r = tb->run();
      }
    } catch (...) {
      // A job that throws (elaboration failure, resource exhaustion) never
      // reaches the !passed() dump in finish_unit; preserve the
      // flight-recorder context for it too, before the exception unwinds
      // the pool.
      dump_flight_recorder(spec.name, seed, view);
      if (plan.progress) {
        plan.progress->job_finish(plan.cfg.name, spec.name, seed, view,
                                  "error", /*cached=*/false, ms_since(t0));
      }
      throw;
    }
    tb.reset();  // detaches the recorder and closes the VCD artifact
    if (plan.run_alignment) traces[unit] = recorder.take();

    TestOutcome& out = outcomes[unit];
    out.test = spec.name;
    out.seed = seed;
    out.model = model;
    // A copy, not a move: the slots live until the campaign ends, and the
    // copy's vectors (txn spans, profile) drop their growth slack.
    out.result = r;
    out.wall_ms = ms_since(t0);
    if (lean) {
      bca_unsettled[pair] = 1;
    } else {
      finish_unit(unit);
    }
  }

  // The side effects of a unit's final result: log line, job and verdict
  // counters, flight-recorder dump on failure, per-run artifacts and the
  // job_finish event.
  void finish_unit(std::size_t unit) {
    const std::size_t pair = unit / 2;
    const TestOutcome& out = outcomes[unit];
    const RunResult& r = out.result;
    const std::string view = unit % 2 == 0 ? "rtl" : "bca";
    log_info() << plan.cfg.name << ": " << out.test << " seed " << out.seed
               << " " << to_string(out.model) << " -> "
               << (r.passed() ? "pass" : "FAIL") << " (" << r.cycles
               << " cycles)";
    if (obs::metrics_enabled()) {
      obs::counter("regress.jobs").inc();
      // add(0) still registers the metric, so reports always carry an
      // explicit failure count.
      obs::counter("regress.failures").add(r.passed() ? 0 : 1);
      verif::publish_verdict_metrics(r);
    }
    if (!r.passed()) dump_flight_recorder(out.test, out.seed, view);

    if (!plan.out_dir.empty()) {
      CRVE_SPAN("artifacts");
      const std::string base = plan.out_dir + "/";
      const std::string name = stem_of(pair) + "_" + view;
      write_text(base + "report_" + name + ".txt", run_report(out));
      if (!plan.profile_out.empty()) {
        write_text(base + "profile_" + name + ".json",
                   obs::profile_json(r.profile));
      }
      if (!plan.txn_trace_out.empty()) {
        write_text(base + "txn_" + name + ".json",
                   obs::txn_json(r.txn, /*with_spans=*/true));
        write_text(base + "txn_" + name + ".trace.json",
                   obs::txn_chrome_trace(r.txn));
      }
    }
    if (plan.progress) {
      plan.progress->job_finish(plan.cfg.name, out.test, out.seed, view,
                                r.passed() ? "pass" : "fail",
                                /*cached=*/false, out.wall_ms);
    }
  }

  // Settles the pair's lean BCA view from the RTL view (settle_lean_bca),
  // or re-runs it with its full environment when the proof fails, then
  // finishes the unit.
  void settle_bca(std::size_t pair, bool recordings_equal) {
    RunResult& bca = outcomes[2 * pair + 1].result;
    if (settle_lean_bca(recordings_equal, outcomes[2 * pair].result, bca)) {
      if (obs::metrics_enabled()) {
        obs::counter("regress.lean_settled", obs::MetricClass::kTiming).inc();
      }
    } else {
      CRVE_SPAN("rerun");
      bca_full.store(true, std::memory_order_relaxed);
      // The re-run repeats a simulation the lean job already recorded and
      // counted, so it records and publishes nothing.
      TestbenchOptions opts = view_options(pair, ModelKind::kBca);
      bca = Testbench(plan.cfg, sized_spec(pair), opts).simulate();
      if (obs::metrics_enabled()) {
        obs::counter("regress.lean_reruns", obs::MetricClass::kTiming).inc();
      }
    }
    finish_unit(2 * pair + 1);
  }

  // Failure forensics: when a flight recorder is installed, preserve the
  // last captured log lines next to the failing job's other artifacts (or
  // on the console when running in-memory). The ring is process-wide, so
  // under a parallel run the dump may interleave lines from other jobs —
  // still exactly the context a post-mortem wants.
  void dump_flight_recorder(const std::string& test, std::uint64_t seed,
                            const std::string& view) const {
    FlightRecorder* fr = flight_recorder();
    if (!fr) return;
    const std::string dump = fr->dump();
    if (dump.empty()) return;
    if (!plan.out_dir.empty()) {
      write_text(plan.out_dir + "/flight_" + sanitize_artifact_name(test) +
                     "_s" + std::to_string(seed) + "_" + view + ".log",
                 dump);
    } else {
      log_error() << "flight recorder (last " << fr->capacity()
                  << " lines) before " << test << " seed " << seed << " "
                  << view << " failure:\n"
                  << dump;
    }
  }

  // Bus-accurate comparison (Fig. 4: after both views of the pair ran).
  void run_alignment(std::size_t pair) {
    const TestSpec& spec = spec_of(pair);
    const std::uint64_t seed = seed_of(pair);
    const bool to_disk = !plan.out_dir.empty();
    const stbus::NodeConfig cfg = job_config(plan.cfg, spec);
    const auto ports = alignment_ports(cfg);

    obs::SpanGuard align_span("align");
    if (obs::tracing_enabled()) {
      align_span.set_detail(plan.cfg.name + ":" + spec.name + ":s" +
                            std::to_string(seed));
    }
    if (obs::metrics_enabled()) obs::counter("regress.alignments").inc();

    if (plan.progress) {
      plan.progress->job_start(plan.cfg.name, spec.name, seed, "align");
    }
    const auto t0 = Clock::now();
    stba::AlignmentReport rep;
    // The pair's recordings, released once the comparison (and triage)
    // is done with them.
    const vcd::Trace ta = std::move(traces[2 * pair]);
    const vcd::Trace tb = std::move(traces[2 * pair + 1]);
    try {
      bool recordings_equal = false;
      rep = stba::Analyzer::compare(ta, tb, ports, &recordings_equal);
      if (bca_unsettled[pair]) settle_bca(pair, recordings_equal);
      if (to_disk) {
        write_text(plan.out_dir + "/alignment_" +
                       sanitize_artifact_name(spec.name) + "_s" +
                       std::to_string(seed) + ".txt",
                   rep.summary(plan.alignment_threshold));
        if (plan.run_triage && !rep.signed_off(plan.alignment_threshold)) {
          // This job finished the pair's second view, and the acq_rel
          // countdown in run_job ordered the other view's slot writes before
          // it: both outcome slots (and their txn span data) are final.
          run_triage(spec.name, seed, ta, tb, ports,
                     outcomes[2 * pair].result.txn,
                     outcomes[2 * pair + 1].result.txn);
        }
      }
    } catch (...) {
      // Same forensics contract as run_unit: a comparison that throws
      // (a port missing from a trace, an artifact write) still dumps the
      // flight recorder.
      dump_flight_recorder(spec.name, seed, "align");
      if (plan.progress) {
        plan.progress->job_finish(plan.cfg.name, spec.name, seed, "align",
                                  "error", /*cached=*/false, ms_since(t0));
      }
      throw;
    }
    AlignmentOutcome& out = aligns[pair];
    out.test = spec.name;
    out.seed = seed;
    out.report = std::move(rep);
    out.wall_ms = ms_since(t0);
    if (plan.progress) {
      plan.progress->job_finish(
          plan.cfg.name, spec.name, seed, "align",
          out.report.signed_off(plan.alignment_threshold) ? "pass" : "fail",
          /*cached=*/false, out.wall_ms);
    }
  }

  // Root-cause artifacts for a pair that missed sign-off: the triage report
  // (divergence windows, per-signal interval lists, in-flight transaction
  // context) plus windowed VCD excerpts of both views around the first
  // divergence, all next to the pair's other artifacts (DESIGN.md section 11).
  void run_triage(const std::string& test, std::uint64_t seed,
                  const vcd::Trace& ta, const vcd::Trace& tb,
                  const std::vector<std::string>& ports,
                  const obs::TxnTraceData& txn_a,
                  const obs::TxnTraceData& txn_b) const {
    CRVE_SPAN("triage");
    if (obs::metrics_enabled()) obs::counter("regress.triages").inc();
    const stba::TriageReport tri = stba::Triage::analyze(ta, tb, ports);
    const std::string stem =
        sanitize_artifact_name(test) + "_s" + std::to_string(seed);
    std::vector<std::pair<std::string, std::string>> context = {
        {"config", plan.cfg.name},
        {"test", test},
        {"seed", std::to_string(seed)},
        {"vcd_a", stem + "_rtl.vcd"},
        {"vcd_b", stem + "_bca.vcd"},
    };
    if (tri.any_diverged()) {
      const std::uint64_t w = plan.triage_window;
      const std::uint64_t begin =
          tri.first_divergence > w ? tri.first_divergence - w : 0;
      // Saturating: a wrapped end would cut the divergence out of the
      // excerpt (the window comes from the CLI or a worker spec file).
      constexpr std::uint64_t kLast = std::numeric_limits<std::uint64_t>::max();
      const std::uint64_t end = w > kLast - tri.first_divergence
                                    ? kLast
                                    : tri.first_divergence + w;
      vcd::write_excerpt_file(ta, begin, end,
                              plan.out_dir + "/excerpt_" + stem + "_rtl.vcd");
      vcd::write_excerpt_file(tb, begin, end,
                              plan.out_dir + "/excerpt_" + stem + "_bca.vcd");
      context.push_back({"excerpt_a", "excerpt_" + stem + "_rtl.vcd"});
      context.push_back({"excerpt_b", "excerpt_" + stem + "_bca.vcd"});
    }
    // With the txn tracer on, correlate each divergence window with the
    // transactions in flight on each view and their lifecycle stage.
    std::vector<std::pair<std::string, std::string>> sections;
    if (!txn_a.empty() || !txn_b.empty()) {
      sections.push_back(
          {"txn_in_flight", stba::txn_flight_json(tri, txn_a, txn_b)});
    }
    write_text(plan.out_dir + "/triage_" + stem + ".json",
               tri.json(context, sections));
  }

  // Serial, order-deterministic aggregation over the filled slots.
  RegressionResult reduce() {
    RegressionResult res;
    res.config_name = plan.cfg.name;
    res.alignment_threshold = plan.alignment_threshold;
    res.rtl_passed = true;
    res.bca_passed = true;
    res.coverage_match = true;
    double cov_sum = 0.0;
    int cov_n = 0;
    for (std::size_t p = 0; p < n_pairs; ++p) {
      const RunResult& rtl = outcomes[2 * p].result;
      const RunResult& bca = outcomes[2 * p + 1].result;
      res.rtl_passed = res.rtl_passed && rtl.passed();
      res.bca_passed = res.bca_passed && bca.passed();
      cov_sum += rtl.coverage_percent;
      ++cov_n;
      if (rtl.coverage_digest != bca.coverage_digest) {
        res.coverage_match = false;
      }
      if (plan.run_alignment) {
        res.min_alignment =
            std::min(res.min_alignment, aligns[p].report.min_rate());
      }
    }
    if (!plan.profile_out.empty()) {
      // Replayed pairs carry empty profiles (profiling never perturbs the
      // cache key), so they merge as no-ops and the merged report reflects
      // exactly the freshly simulated work.
      for (const auto& o : outcomes) res.profile.merge(o.result.profile);
    }
    if (!plan.txn_trace_out.empty()) {
      // Slot order makes the merge deterministic; labels carry the full
      // provenance so campaign-level top-K ties rank under a total order
      // even across configs. Replayed pairs carry empty txn data (the trace
      // knob never perturbs the cache key) and merge as no-ops.
      for (std::size_t p = 0; p < n_pairs; ++p) {
        const std::string pair_label = plan.cfg.name + ":" + spec_of(p).name +
                                       ":s" + std::to_string(seed_of(p));
        for (int v = 0; v < 2; ++v) {
          obs::TxnTraceData td = outcomes[2 * p + v].result.txn;
          for (auto& s : td.slowest) {
            s.label = pair_label + (v == 0 ? ":rtl" : ":bca");
          }
          res.txn.merge(td);
        }
        res.txn_delta.merge(obs::txn_delta(outcomes[2 * p].result.txn,
                                           outcomes[2 * p + 1].result.txn,
                                           pair_label));
      }
    }
    res.outcomes = std::move(outcomes);
    res.alignments = std::move(aligns);
    res.mean_coverage_rtl = cov_n > 0 ? cov_sum / cov_n : 0.0;
    res.signed_off = res.rtl_passed && res.bca_passed && res.coverage_match &&
                     res.min_alignment >= plan.alignment_threshold;
    for (char c : pair_cached) res.cached_pairs += c ? 1 : 0;
    if (res.cached_pairs > 0) res.cache_build_json = cache_build_json;
    return res;
  }
};

// Names the artifacts one pair job may have written to its out_dir. The
// full waves are deliberately absent: they are bulk viewer artifacts (the
// alignment itself reads the in-process recordings), not results worth a
// cache's budget — the windowed excerpts around a divergence are what
// triage reads. The profile_* and txn_* artifacts are absent too: their
// knobs are excluded from the JobSpec hash, so caching them would leak
// instrumentation files into later uninstrumented replays of the same key.
std::vector<std::string> pair_artifact_names(const std::string& test,
                                             std::uint64_t seed) {
  const std::string stem =
      sanitize_artifact_name(test) + "_s" + std::to_string(seed);
  return {
      "report_" + stem + "_rtl.txt",  "report_" + stem + "_bca.txt",
      "alignment_" + stem + ".txt",   "triage_" + stem + ".json",
      "excerpt_" + stem + "_rtl.vcd", "excerpt_" + stem + "_bca.vcd",
      "flight_" + stem + "_rtl.log",  "flight_" + stem + "_bca.log",
  };
}

// Planner side of the campaign cache: probes every pair job's JobSpec
// hash, replays hits into their slots (narrowing the campaign's job lists
// to the misses) and, once the pool drained, stores the freshly executed
// pairs. Inactive (all methods no-ops) when the plan has no cache_dir.
struct CachePlanner {
  std::unique_ptr<cache::Cache> store;

  explicit CachePlanner(const RunPlan& plan) {
    if (plan.cache_dir.empty()) return;
    cache::CacheOptions copts;
    copts.dir = plan.cache_dir;
    copts.max_bytes = plan.cache_max_mb * 1024ULL * 1024ULL;
    copts.git_hash = build_info().git_hash;
    copts.sanitize = build_info().sanitize;
    store = std::make_unique<cache::Cache>(copts);
  }

  bool active() const { return store != nullptr; }

  // Only suite tests reachable by name can be re-executed elsewhere, so
  // only they are cacheable; ad-hoc TestSpecs (custom lambdas) always run.
  static bool cacheable(const TestSpec& spec) {
    static const std::set<std::string> suite = [] {
      std::set<std::string> names;
      for (const auto& t : verif::catg_test_suite()) names.insert(t.name);
      return names;
    }();
    return suite.count(spec.name) > 0;
  }

  // Probes every pair of `camp` and rewrites its missing lists to the
  // cache misses. Returns the specs of the missing cacheable pairs in
  // slot order (the worker protocol's job list).
  std::vector<JobSpec> probe(Campaign& camp) {
    std::vector<JobSpec> missing_specs;
    if (!active()) return missing_specs;
    camp.missing_units.clear();
    for (std::size_t p = 0; p < camp.n_pairs; ++p) {
      const TestSpec& spec = camp.spec_of(p);
      bool hit = false;
      if (cacheable(spec)) {
        const JobSpec js = job_spec_for(camp.plan, spec, camp.seed_of(p));
        const std::string key = js.hash();
        if (std::optional<std::string> payload = store->fetch(key)) {
          hit = replay(camp, p, key, *payload);
        }
        if (!hit) missing_specs.push_back(js);
      }
      if (hit) {
        camp.pair_cached[p] = 1;
      } else {
        camp.missing_units.push_back(2 * p);
        camp.missing_units.push_back(2 * p + 1);
      }
    }
    return missing_specs;
  }

  // Decodes a payload into the pair's slots and re-materializes its
  // manifest-listed artifacts. A payload that does not decode, or does not
  // describe this job, is stale-schema garbage: invalidate it and report a
  // miss — never crash, never poison the campaign.
  bool replay(Campaign& camp, std::size_t p, const std::string& key,
              const std::string& payload) {
    PairResult pr;
    try {
      pr = decode_pair_result(payload);
    } catch (const std::exception& e) {
      log_warn() << "cache entry " << key.substr(0, 12) << " undecodable ("
                 << e.what() << "); invalidating";
      store->invalidate(key);
      return false;
    }
    const TestSpec& spec = camp.spec_of(p);
    const std::uint64_t seed = camp.seed_of(p);
    if (pr.rtl.test != spec.name || pr.rtl.seed != seed ||
        (camp.plan.run_alignment && !pr.has_alignment)) {
      log_warn() << "cache entry " << key.substr(0, 12)
                 << " does not describe its job; invalidating";
      store->invalidate(key);
      return false;
    }
    if (camp.cache_build_json.empty()) {
      camp.cache_build_json = pair_build_json(pr, "");
    }
    pr.rtl.cached = true;
    pr.bca.cached = true;
    camp.outcomes[2 * p] = std::move(pr.rtl);
    camp.outcomes[2 * p + 1] = std::move(pr.bca);
    if (camp.plan.run_alignment) {
      pr.alignment.cached = true;
      camp.aligns[p] = std::move(pr.alignment);
    }
    if (!camp.plan.out_dir.empty()) {
      store->materialize(key, camp.plan.out_dir);
    }
    if (obs::metrics_enabled()) obs::counter("regress.pairs_replayed").inc();
    return true;
  }

  // Stores every freshly executed cacheable pair of `camp`. Must run
  // before reduce() (which moves the slots out). Cache trouble — a full
  // disk, permissions — degrades to a warning: the campaign's own results
  // are already in their slots.
  void store_results(const Campaign& camp) {
    if (!active()) return;
    for (std::size_t p = 0; p < camp.n_pairs; ++p) {
      if (camp.pair_cached[p]) continue;
      const TestSpec& spec = camp.spec_of(p);
      if (!cacheable(spec)) continue;
      const std::uint64_t seed = camp.seed_of(p);
      const JobSpec js = job_spec_for(camp.plan, spec, seed);
      PairResult pr;
      pr.rtl = camp.outcomes[2 * p];
      pr.bca = camp.outcomes[2 * p + 1];
      pr.has_alignment = camp.plan.run_alignment;
      if (pr.has_alignment) pr.alignment = camp.aligns[p];
      const BuildInfo& bi = build_info();
      pr.git_hash = bi.git_hash;
      pr.compiler = bi.compiler;
      pr.build_type = bi.build_type;
      pr.sanitize = bi.sanitize;
      std::vector<std::pair<std::string, std::string>> files;
      if (!camp.plan.out_dir.empty()) {
        for (const std::string& name : pair_artifact_names(spec.name, seed)) {
          const std::string path = camp.plan.out_dir + "/" + name;
          if (std::filesystem::exists(path)) files.push_back({name, path});
        }
      }
      try {
        store->store(js.hash(), encode_pair_result(pr, js.hash()), files);
      } catch (const std::exception& e) {
        log_warn() << "cache store failed for " << spec.name << " s" << seed
                   << ": " << e.what();
      }
    }
  }
};

void write_campaign_artifacts(const RunPlan& plan,
                              const RegressionResult& res) {
  if (plan.out_dir.empty()) return;
  write_text(plan.out_dir + "/summary.txt", res.summary());
  write_text(plan.out_dir + "/report.json", res.json());
}

// Campaign-level hotspot report (RunPlan::profile_out): the merged profile
// with the build stamp spliced in after the opening brace, mirroring how
// the JSON report carries provenance.
void write_profile_report(const std::string& path,
                          const obs::ProfileData& pd) {
  std::string doc = obs::profile_json(pd);
  doc.insert(2, "  \"build\": " + build_info_json("  ") + ",\n");
  write_text(path, doc);
}

// Campaign-level transaction-latency report (RunPlan::txn_trace_out): the
// merged stable aggregate plus the dual-view delta join, stamped with
// build provenance like every other artifact.
void write_txn_report(const std::string& path, const obs::TxnTraceData& td,
                      const obs::TxnDeltaStats& delta) {
  std::string doc = "{\n";
  doc += "  \"build\": " + build_info_json("  ") + ",\n";
  doc += "  \"txn\": " + obs::txn_json(td, /*with_spans=*/false, "  ") + ",\n";
  doc += "  \"delta\": " + obs::txn_delta_json(delta, "  ") + "\n}\n";
  write_text(path, doc);
}

// Telemetry job accounting: every (test, seed) pair is two view units plus
// one alignment comparison when enabled.
std::size_t campaign_total_jobs(const Campaign& camp) {
  return camp.n_pairs * (camp.plan.run_alignment ? 3u : 2u);
}

std::size_t campaign_cached_jobs(const Campaign& camp) {
  std::size_t cached_pairs = 0;
  for (char c : camp.pair_cached) cached_pairs += c ? 1 : 0;
  return cached_pairs * (camp.plan.run_alignment ? 3u : 2u);
}

// The one job loop behind Regression::run, run_matrix and run_worker: the
// missing view jobs of every campaign go onto the pool as one flat list, so
// a slow configuration keeps all workers busy instead of gating the batch,
// and each pair is aligned by the job that finishes its second view — no
// barrier between simulation and alignment, and at most a few pairs'
// recordings alive at once.
void run_campaigns(ThreadPool& pool, std::span<Campaign> camps) {
  struct Ref {
    Campaign* camp;
    std::size_t unit;
  };
  std::vector<Ref> units;
  for (Campaign& camp : camps) {
    for (const std::size_t u : camp.missing_units) units.push_back({&camp, u});
  }
  pool.parallel_for(units.size(), [&](std::size_t k) {
    units[k].camp->run_job(units[k].unit);
  });
}

// Cache hits never enter the pool, so their lifecycle events are emitted
// here, straight after the probe: one job_finish per replayed unit with
// cached=true and the original run's wall clock from the payload.
void emit_cached_finishes(const Campaign& camp, ProgressTracker* progress) {
  if (!progress) return;
  for (std::size_t p = 0; p < camp.n_pairs; ++p) {
    if (!camp.pair_cached[p]) continue;
    const TestSpec& spec = camp.spec_of(p);
    const std::uint64_t seed = camp.seed_of(p);
    const TestOutcome& rtl = camp.outcomes[2 * p];
    const TestOutcome& bca = camp.outcomes[2 * p + 1];
    progress->job_finish(camp.plan.cfg.name, spec.name, seed, "rtl",
                         rtl.result.passed() ? "pass" : "fail",
                         /*cached=*/true, rtl.wall_ms);
    progress->job_finish(camp.plan.cfg.name, spec.name, seed, "bca",
                         bca.result.passed() ? "pass" : "fail",
                         /*cached=*/true, bca.wall_ms);
    if (camp.plan.run_alignment) {
      const AlignmentOutcome& a = camp.aligns[p];
      progress->job_finish(
          camp.plan.cfg.name, spec.name, seed, "align",
          a.report.signed_off(camp.plan.alignment_threshold) ? "pass" : "fail",
          /*cached=*/true, a.wall_ms);
    }
  }
}

}  // namespace

RegressionResult Regression::run(const RunPlan& plan) {
  const auto t0 = Clock::now();
  obs::SpanGuard campaign_span("campaign");
  if (obs::tracing_enabled()) campaign_span.set_detail(plan.cfg.name);
  Campaign camp;
  camp.plan = plan;
  camp.prepare();
  CachePlanner planner(plan);
  planner.probe(camp);  // no cache: the missing lists stay full
  if (plan.progress) {
    plan.progress->campaign_start(1, campaign_total_jobs(camp),
                                  campaign_cached_jobs(camp));
    emit_cached_finishes(camp, plan.progress);
  }

  ThreadPool pool(resolve_jobs(plan.jobs));
  run_campaigns(pool, std::span<Campaign>(&camp, 1));
  planner.store_results(camp);
  if (plan.progress && planner.active()) {
    plan.progress->evictions(planner.store->stats().evictions);
  }

  RegressionResult res;
  {
    CRVE_SPAN("reduce");
    res = camp.reduce();
  }
  // Quiescent read: parallel_for returns when the last task body finishes,
  // but a worker may still be writing its own pool.* timing cells after
  // that. wait() drains in_flight_, which workers decrement only after
  // those writes — the happens-before edge the merge needs.
  pool.wait();
  if (obs::metrics_enabled()) {
    res.metrics_json = obs::registry().json(/*include_timing=*/false);
  }
  res.wall_ms = ms_since(t0);
  write_campaign_artifacts(plan, res);
  if (!plan.profile_out.empty()) {
    write_profile_report(plan.profile_out, res.profile);
  }
  if (!plan.txn_trace_out.empty()) {
    write_txn_report(plan.txn_trace_out, res.txn, res.txn_delta);
  }
  if (plan.progress) plan.progress->campaign_end(res.signed_off);
  return res;
}

namespace {

MatrixResult run_matrix_with(const std::vector<stbus::NodeConfig>& configs,
                             const RunPlan& base, bool force_lean_bca) {
  const auto t0 = Clock::now();
  // Intentionally the same span name as Regression::run's campaign guard:
  // both cover one whole campaign entry point, whichever was called, so
  // traces stay comparable across the two. crve-lint: allow(CRVE062)
  CRVE_SPAN("campaign", "matrix");
  MatrixResult mres;
  mres.jobs = resolve_jobs(base.jobs);
  mres.design_health = base.design_health;

  std::vector<Campaign> camps(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    camps[i].plan = base;
    camps[i].plan.cfg = configs[i];
    if (!base.out_dir.empty()) {
      camps[i].plan.out_dir = base.out_dir + "/" + configs[i].name;
    }
    camps[i].prepare();
    if (force_lean_bca) {
      camps[i].lean_bca = base.run_alignment && base.txn_trace_out.empty();
    }
  }
  CachePlanner planner(base);
  for (auto& camp : camps) planner.probe(camp);
  if (base.progress) {
    std::size_t total = 0;
    std::size_t cached = 0;
    for (const auto& camp : camps) {
      total += campaign_total_jobs(camp);
      cached += campaign_cached_jobs(camp);
    }
    base.progress->campaign_start(configs.size(), total, cached);
    for (const auto& camp : camps) emit_cached_finishes(camp, base.progress);
  }

  ThreadPool pool(mres.jobs);
  run_campaigns(pool, camps);
  for (const auto& camp : camps) planner.store_results(camp);
  if (planner.active()) {
    mres.cache_stats_json = planner.store->stats().json(
        planner.store->entry_count(), planner.store->total_bytes());
    if (base.progress) {
      base.progress->evictions(planner.store->stats().evictions);
    }
  }

  mres.all_signed_off = true;
  mres.results.reserve(camps.size());
  {
    // Intentionally the same span name as Regression::run's reduce: both
    // cover the one slot-ordered aggregation phase, whichever entry point
    // ran it, so traces stay comparable across the two.
    // crve-lint: allow(CRVE062)
    CRVE_SPAN("reduce");
    for (auto& camp : camps) {
      RegressionResult res = camp.reduce();
      // Batch mode: per-config wall is the summed job time (the configs ran
      // interleaved, so a per-config elapsed time would be meaningless).
      for (const auto& o : res.outcomes) res.wall_ms += o.wall_ms;
      for (const auto& a : res.alignments) res.wall_ms += a.wall_ms;
      write_campaign_artifacts(camp.plan, res);
      mres.all_signed_off = mres.all_signed_off && res.signed_off;
      if (!base.profile_out.empty()) mres.profile.merge(res.profile);
      if (!base.txn_trace_out.empty()) {
        mres.txn.merge(res.txn);
        mres.txn_delta.merge(res.txn_delta);
      }
      mres.results.push_back(std::move(res));
    }
  }
  // Quiescent read: drain the pool's post-task metric writes (see run()).
  pool.wait();
  if (obs::metrics_enabled()) {
    mres.metrics_json = obs::registry().json(/*include_timing=*/false);
  }
  mres.wall_ms = ms_since(t0);
  if (!base.profile_out.empty()) {
    write_profile_report(base.profile_out, mres.profile);
  }
  if (!base.txn_trace_out.empty()) {
    write_txn_report(base.txn_trace_out, mres.txn, mres.txn_delta);
  }
  if (!base.out_dir.empty()) {
    write_text(base.out_dir + "/report.json", mres.json());
    // Campaign dashboard next to the report. Link targets mirror what the
    // campaigns actually wrote: triage artifacts appear exactly for
    // below-threshold pairs, flight dumps only when a recorder is installed.
    HtmlOptions hopts;
    hopts.triage_links = base.run_triage;
    hopts.flight_links = flight_recorder() != nullptr;
    // Quiescent read: the pool drained above, so the tracker's record list
    // is complete and stable for the timeline panel.
    if (base.progress) hopts.timeline = &base.progress->records();
    if (obs::metrics_enabled()) {
      const obs::Registry::Snapshot snap =
          obs::registry().snapshot(/*include_timing=*/false);
      write_text(base.out_dir + "/dashboard.html",
                 html_report(mres, &snap, hopts));
    } else {
      write_text(base.out_dir + "/dashboard.html",
                 html_report(mres, nullptr, hopts));
    }
  }
  if (base.progress) base.progress->campaign_end(mres.all_signed_off);
  return mres;
}

}  // namespace

bool settle_lean_bca(bool recordings_equal, const RunResult& rtl,
                     RunResult& bca) {
  if (!recordings_equal || rtl.cycles != bca.cycles) return false;
  bca.take_passive_verdict(rtl);
  return true;
}

MatrixResult Regression::run_matrix(
    const std::vector<stbus::NodeConfig>& configs, const RunPlan& base) {
  return run_matrix_with(configs, base, /*force_lean_bca=*/false);
}

MatrixResult Regression::run_matrix_lean_bca_for_testing(
    const std::vector<stbus::NodeConfig>& configs, const RunPlan& base) {
  return run_matrix_with(configs, base, /*force_lean_bca=*/true);
}

MatrixPlan Regression::plan_matrix(
    const std::vector<stbus::NodeConfig>& configs, const RunPlan& base) {
  MatrixPlan mplan;
  CachePlanner planner(base);
  for (const auto& cfg : configs) {
    Campaign camp;
    camp.plan = base;
    camp.plan.cfg = cfg;
    camp.plan.out_dir.clear();  // planning must not create artifact dirs
    camp.prepare();
    mplan.total_pairs += camp.n_pairs;
    if (!planner.active()) {
      for (std::size_t p = 0; p < camp.n_pairs; ++p) {
        const TestSpec& spec = camp.spec_of(p);
        if (!CachePlanner::cacheable(spec)) continue;
        mplan.missing.push_back(
            job_spec_for(camp.plan, spec, camp.seed_of(p)));
      }
      continue;
    }
    std::vector<JobSpec> missing = planner.probe(camp);
    for (char c : camp.pair_cached) mplan.cached_pairs += c ? 1 : 0;
    for (auto& js : missing) mplan.missing.push_back(std::move(js));
  }
  return mplan;
}

std::vector<WorkerOutcome> Regression::run_worker(
    const std::vector<JobSpec>& specs, const WorkerOptions& opts) {
  std::vector<WorkerOutcome> out;
  out.reserve(specs.size());
  std::unique_ptr<cache::Cache> store;
  if (!opts.cache_dir.empty()) {
    cache::CacheOptions copts;
    copts.dir = opts.cache_dir;
    copts.max_bytes = opts.cache_max_mb * 1024ULL * 1024ULL;
    copts.git_hash = build_info().git_hash;
    copts.sanitize = build_info().sanitize;
    store = std::make_unique<cache::Cache>(copts);
  }
  // Every spec becomes a one-pair campaign; all of them then run through
  // the shared job loop, so pairs overlap across the pool.
  const std::vector<TestSpec> suite = verif::catg_test_suite();
  std::vector<Campaign> camps(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& js = specs[i];
    const TestSpec* spec = nullptr;
    for (const auto& t : suite) {
      if (t.name == js.test) {
        spec = &t;
        break;
      }
    }
    if (!spec) throw std::runtime_error("worker: unknown test " + js.test);
    if (js.git_hash != build_info().git_hash) {
      log_warn() << "worker: spec " << js.hash().substr(0, 12)
                 << " was planned for build " << js.git_hash
                 << ", executing with " << build_info().git_hash;
    }
    RunPlan& plan = camps[i].plan;
    {
      std::istringstream is(js.config_text);
      plan.cfg = parse_config(is, "jobspec");
    }
    plan.tests = {*spec};
    plan.seeds = {js.seed};
    plan.n_transactions = js.n_transactions;
    plan.max_cycles = js.max_cycles;
    plan.run_alignment = js.run_alignment;
    plan.alignment_threshold = js.alignment_threshold;
    plan.run_triage = js.run_triage;
    plan.triage_window = js.triage_window;
    plan.kernel = js.kernel == "interp" ? sim::KernelKind::kInterp
                                        : sim::KernelKind::kCompiled;
    plan.faults = faults_from_names(js.faults);
    if (!opts.out_dir.empty()) {
      plan.out_dir = opts.out_dir + "/" + js.hash().substr(0, 12);
    }
    camps[i].prepare();
  }
  ThreadPool pool(resolve_jobs(opts.jobs));
  run_campaigns(pool, camps);
  pool.wait();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& js = specs[i];
    const Campaign& camp = camps[i];
    PairResult pr;
    pr.rtl = camp.outcomes[0];
    pr.bca = camp.outcomes[1];
    pr.has_alignment = camp.plan.run_alignment;
    if (pr.has_alignment) pr.alignment = camp.aligns[0];
    const BuildInfo& bi = build_info();
    pr.git_hash = bi.git_hash;
    pr.compiler = bi.compiler;
    pr.build_type = bi.build_type;
    pr.sanitize = bi.sanitize;

    WorkerOutcome wo;
    wo.hash = js.hash();
    wo.payload = encode_pair_result(pr, wo.hash);
    wo.passed = pr.rtl.result.passed() && pr.bca.result.passed();
    if (store) {
      std::vector<std::pair<std::string, std::string>> files;
      if (!camp.plan.out_dir.empty()) {
        for (const std::string& name : pair_artifact_names(js.test, js.seed)) {
          const std::string path = camp.plan.out_dir + "/" + name;
          if (std::filesystem::exists(path)) files.push_back({name, path});
        }
      }
      try {
        store->store(wo.hash, wo.payload, files);
      } catch (const std::exception& e) {
        log_warn() << "worker: cache store failed for "
                   << wo.hash.substr(0, 12) << ": " << e.what();
      }
    }
    out.push_back(std::move(wo));
  }
  return out;
}

std::string RegressionResult::summary() const {
  std::ostringstream os;
  os << "regression: " << outcomes.size() << " runs\n";
  os << "  RTL view:   " << (rtl_passed ? "PASS" : "FAIL") << "\n";
  os << "  BCA view:   " << (bca_passed ? "PASS" : "FAIL") << "\n";
  os << "  coverage:   " << (coverage_match ? "identical on both views"
                                            : "MISMATCH between views")
     << " (mean " << mean_coverage_rtl << "% on RTL)\n";
  os << "  alignment:  min " << 100.0 * min_alignment << "% across "
     << alignments.size() << " comparisons\n";
  os << "  sign-off:   " << (signed_off ? "YES" : "NO") << "\n";
  if (cached_pairs > 0) {
    os << "  cache:      " << cached_pairs << " of " << outcomes.size() / 2
       << " pairs replayed\n";
  }
  for (const auto& o : outcomes) {
    if (!o.result.passed()) {
      os << "  FAILED: " << o.test << " seed " << o.seed << " "
         << verif::to_string(o.model) << " (viol "
         << o.result.checker_violations << ", sb "
         << o.result.scoreboard_errors << ", "
         << (o.result.completed ? "completed" : "TIMEOUT") << ")\n";
    }
  }
  return os.str();
}

std::string MatrixResult::summary() const {
  std::ostringstream os;
  std::size_t runs = 0;
  for (const auto& r : results) runs += r.outcomes.size();
  os << "batch: " << results.size() << " configurations, " << runs
     << " runs, jobs=" << jobs << "\n";
  for (const auto& r : results) {
    os << "  " << r.config_name << ": "
       << (r.signed_off ? "signed off" : "NOT signed off") << " (RTL "
       << (r.rtl_passed ? "PASS" : "FAIL") << ", BCA "
       << (r.bca_passed ? "PASS" : "FAIL") << ", min alignment "
       << 100.0 * r.min_alignment << "%)\n";
  }
  std::size_t cached = 0;
  for (const auto& r : results) cached += r.cached_pairs;
  if (cached > 0) os << "cache: " << cached << " pairs replayed\n";
  os << "overall: " << (all_signed_off ? "ALL SIGNED OFF" : "NOT signed off")
     << "\n";
  return os.str();
}

}  // namespace crve::regress

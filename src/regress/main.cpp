// crve_regress — the regression tool as a command-line batch runner.
//
// The paper's tool has a GUI for submitting HDL parameters and "runs
// regression tests in batch mode, through generic scripts that are design
// independent... it's sufficient to indicate the directory to which the
// tool has to point". This binary is that batch mode:
//
//   crve_regress --configs DIR [options]
//   crve_regress --sample-configs DIR        # write example .cfg files
//
// Options (integer values take decimal digits only: no sign, no junk):
//   --configs DIR      run every *.cfg in DIR (sorted)
//   --out DIR          write VCDs, per-run reports, alignment reports
//   --seeds a,b,c      seeds to run every test with        (default: 1)
//   --tests t02,t05    subset of the CATG suite by prefix  (default: all 12)
//   --tx N             transactions per initiator per test (default: 60)
//   --threshold P      alignment sign-off threshold, (0, 1] (default: 0.99)
//   --fault NAME       inject a named BCA fault (see bca/faults.h)
//   --no-alignment     skip VCD dump + STBA comparison
//   --jobs N           worker threads for the (config,test,seed,view)
//                      matrix, at most 1024 (default: 0 = one per hardware
//                      thread)
//   --json FILE        also write the batch JSON report to FILE
//   --sim-kernel K     simulation kernel: "compiled" (levelized static
//                      schedule, the default) or "interp" (reference
//                      delta-cycle interpreter, the escape hatch and the
//                      differential-testing baseline)
//   --no-triage        skip triage artifacts for below-threshold pairs
//   --triage-window N  excerpt half-width in cycles around the first
//                      divergence (default: 50)
//   --no-lint          skip the pre-flight crve_lint pass over the config
//                      directory and the campaign plan (DESIGN.md §12)
//   --no-design-lint   skip the pre-flight design lint (DESIGN.md §17):
//                      elaborate every configuration's testbench on both
//                      views (no simulation) and run the CRVE1xx structural
//                      rules; error findings stop the campaign with exit 2
//   --design-selftest  run the deliberately defective design-lint selftest
//                      and exit with its code (2) — the CI negative check
//                      that the gate actually fails on a broken design
//
// Campaign cache (DESIGN.md §13):
//   --cache-dir DIR    content-addressed result cache: pair jobs whose
//                      JobSpec hash is present replay from DIR instead of
//                      re-simulating; missing pairs are stored after they
//                      run. A rebuild changes the hash, so a stale cache
//                      degrades to misses, never to wrong results. Writes
//                      are atomic and the first writer wins, so several
//                      campaigns may share one DIR.
//   --cache-max-mb N   cache size budget (LRU eviction); 0 = unbounded;
//                      at most 2^44 - 1, so the budget in bytes fits 64 bits
//   --cache-stats FILE write {"build": ..., "cache": {hits, misses, ...}}
//                      after the batch (requires --cache-dir)
//   --emit-specs FILE  the planner's dry run: probe the cache, write the
//                      pair jobs the campaign would simulate (with their
//                      cache keys) to FILE, and run nothing
//
// Baseline drift gating (DESIGN.md §11):
//   --baseline FILE    compare this batch's report against a stored
//                      report.json; print the ranked drift summary and fail
//                      the gate on regressions beyond the thresholds
//   --diff FILE        write the drift findings as JSON (requires --baseline)
//   --gate-rate-drop X    max tolerated per-port alignment-rate drop as a
//                         fraction (default: 0.001 = 0.1pp)
//   --gate-coverage-drop X  max tolerated coverage drop in percentage
//                           points (default: 0 = any drop fails)
//   Both take a finite number >= 0.
//
// Observability (DESIGN.md §10, §15):
//   --metrics-out FILE enable metrics collection; write the full registry
//                      (timing metrics included) as JSON after the batch.
//                      Orthogonal to --profile-out and --progress-out: the
//                      registry aggregates campaign-level counters, the
//                      profiler attributes kernel time per process, and the
//                      progress stream reports job lifecycle. Any
//                      combination is valid and none changes the others'
//                      output.
//   --trace-out FILE   record phase spans; write a Chrome trace-event file
//                      loadable in Perfetto / chrome://tracing
//   --flight-recorder N
//                      keep the last N log lines (info and up, N at most
//                      1000000) in a ring;
//                      a failing, throwing or timing-out job dumps them
//                      next to its artifacts
//   --profile-out FILE enable the kernel hotspot profiler on every job;
//                      write the merged campaign hotspot report to FILE,
//                      plus per-job profile_<test>_s<seed>_<view>.json
//                      artifacts under --out. Profiling never perturbs the
//                      campaign cache key, so a profiled rerun still
//                      replays its cache hits.
//   --txn-trace-out FILE
//                      enable transaction-lifecycle tracing on every job;
//                      write the merged campaign latency report (per-hop
//                      histograms, top-K slowest spans, dual-view delta
//                      join) to FILE, plus per-job txn_<test>_s<seed>_
//                      <view>.json span artifacts and .trace.json Chrome
//                      trace-event files under --out. Like --profile-out,
//                      the knob never perturbs the campaign cache key, so
//                      a traced rerun still replays its cache hits
//                      (replayed pairs contribute no spans).
//   --progress-out FILE
//                      stream NDJSON campaign telemetry to FILE: job
//                      lifecycle with verdicts and cache hits, heartbeats
//                      with in-flight set and ETA, eviction counts
//                      (schema in DESIGN.md §15)
//   --progress         single-line live status display on stderr
//
// Exit status: 0 when every configuration signs off (and, with --baseline,
// no drift regression exceeds its threshold); 1 on campaign failure;
// 2 on usage errors or error-severity lint findings; 3 when the campaign
// passed but the drift gate failed. Every output-file flag fails fast: an
// unwritable path (--json, --diff, --cache-stats, --metrics-out,
// --trace-out, --profile-out, --txn-trace-out, --progress-out) is a usage
// error, reported with exit 2 before the campaign starts — never after it
// spent its wall clock. The file's parent directory is created if missing (so an output
// file inside the --out directory works before the runner makes it); only
// a path that cannot be created fails.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.h"
#include "common/json.h"
#include "common/log.h"
#include "lint/design_lint.h"
#include "lint/lint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regress/baseline.h"
#include "regress/config_file.h"
#include "regress/job_spec.h"
#include "regress/progress.h"
#include "regress/runner.h"
#include "stba/analyzer.h"
#include "verif/tests.h"

namespace {

using namespace crve;

int usage() {
  std::fprintf(stderr,
               "usage: crve_regress --configs DIR [--out DIR] [--seeds a,b]\n"
               "                    [--tests t02,t05] [--tx N] [--threshold P]\n"
               "                    [--fault NAME] [--no-alignment]\n"
               "                    [--jobs N] [--json FILE]\n"
               "                    [--sim-kernel compiled|interp]\n"
               "                    [--no-triage] [--triage-window N]\n"
               "                    [--no-lint] [--no-design-lint]\n"
               "                    [--cache-dir DIR] [--cache-max-mb N]\n"
               "                    [--cache-stats FILE] [--emit-specs FILE]\n"
               "                    [--baseline FILE] [--diff FILE]\n"
               "                    [--gate-rate-drop X] "
               "[--gate-coverage-drop X]\n"
               "                    [--metrics-out FILE] [--trace-out FILE]\n"
               "                    [--flight-recorder N]\n"
               "                    [--profile-out FILE] "
               "[--txn-trace-out FILE]\n"
               "                    [--progress-out FILE] [--progress]\n"
               "       crve_regress --sample-configs DIR\n"
               "       crve_regress --design-selftest\n"
               "integer flags take decimal digits only; --jobs is at most "
               "1024 and\n--flight-recorder at most 1000000 lines\n");
  return 2;
}

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxTx = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxJobs = 1024;
constexpr std::uint64_t kMaxFlightLines = 1000000;
constexpr std::uint64_t kMaxCacheMb = kMaxU64 >> 20;  // MB -> bytes fits

// An integer flag's value through the config grammar's whole-value parser:
// decimal digits only, at most `max`. nullopt (reported when there is a
// value) on anything else.
std::optional<std::uint64_t> uint_flag(const char* flag, const char* v,
                                       std::uint64_t max) {
  if (!v) return std::nullopt;
  const auto n = regress::parse_integer<std::uint64_t>(v, max);
  if (!n) {
    std::fprintf(stderr, "invalid %s '%s': expected an integer in 0..%llu\n",
                 flag, v, static_cast<unsigned long long>(max));
  }
  return n;
}

// A drift-gate tolerance: a finite number >= 0. A nan one never trips the
// gate and a negative one trips on identical reports.
std::optional<double> tolerance_flag(const char* flag, const char* v) {
  if (!v) return std::nullopt;
  double x = 0.0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, x);
  if (ec != std::errc() || ptr != end || !std::isfinite(x) || x < 0.0) {
    std::fprintf(stderr, "invalid %s '%s': expected a finite number >= 0\n",
                 flag, v);
    return std::nullopt;
  }
  return x;
}

void write_sample_configs(const std::string& dir) {
  std::filesystem::create_directories(dir);
  auto write = [&dir](const char* name, stbus::NodeConfig cfg) {
    std::ofstream os(dir + "/" + name);
    os << regress::format_config(cfg);
  };
  stbus::NodeConfig a;
  a.name = "node_t2_xbar_lru";
  a.n_initiators = 3;
  a.n_targets = 2;
  a.arb = stbus::ArbPolicy::kLru;
  write("a_node_t2_xbar_lru.cfg", a);

  stbus::NodeConfig b;
  b.name = "node_t3_shared_latency";
  b.n_initiators = 4;
  b.n_targets = 2;
  b.type = stbus::ProtocolType::kType3;
  b.arch = stbus::Architecture::kSharedBus;
  b.arb = stbus::ArbPolicy::kLatencyBased;
  b.latency_deadline = {4, 8, 16, 32};
  write("b_node_t3_shared_latency.cfg", b);

  stbus::NodeConfig c;
  c.name = "node_t2_wide_prog";
  c.n_initiators = 2;
  c.n_targets = 2;
  c.bus_bytes = 16;
  c.arb = stbus::ArbPolicy::kProgrammable;
  c.programming_port = true;
  write("c_node_t2_wide_prog.cfg", c);
  std::printf("wrote 3 sample configurations to %s\n", dir.c_str());
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Fail-fast preflight for an output-file flag: an unwritable path is a
// usage error detected before any simulation starts, not a surprise after
// the campaign spent its wall clock. An explicitly requested output file
// implies its directory (mirroring what the runner does for --out), so
// `--profile-out fresh_dir/profile.json` works; only a path that cannot be
// created is an error. Append mode, so an existing file's contents survive
// until the real writer truncates it.
bool check_writable(const std::string& path) {
  if (path.empty()) return true;
  const auto parent = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream os(path, std::ios::app);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_dir, out_dir, sample_dir, json_path;
  std::string metrics_path, trace_path, profile_path, txn_path, progress_path;
  bool progress_tty = false;
  std::string baseline_path, diff_path;
  std::string cache_dir, cache_stats_path;
  std::string emit_specs_path;
  std::uint64_t cache_max_mb = 0;
  regress::DriftThresholds gates;
  std::size_t flight_lines = 0;  // 0 = no flight recorder
  std::vector<std::uint64_t> seeds = {1};
  std::vector<std::string> test_filter;
  int tx = 60;
  double threshold = 0.99;
  bca::Faults faults;
  bool alignment = true;
  bool triage = true;
  bool lint = true;
  bool design_lint = true;
  bool design_selftest = false;
  std::uint64_t triage_window = 50;
  unsigned jobs = 0;  // 0 = one worker per hardware thread
  sim::KernelKind kernel = sim::KernelKind::kCompiled;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--configs") {
      const char* v = next();
      if (!v) return usage();
      config_dir = v;
    } else if (arg == "--sample-configs") {
      const char* v = next();
      if (!v) return usage();
      sample_dir = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage();
      out_dir = v;
    } else if (arg == "--seeds") {
      const char* v = next();
      if (!v) return usage();
      seeds.clear();
      for (const auto& s : split_csv(v)) {
        const auto seed = uint_flag("--seeds", s.c_str(), kMaxU64);
        if (!seed) return usage();
        seeds.push_back(*seed);
      }
    } else if (arg == "--tests") {
      const char* v = next();
      if (!v) return usage();
      test_filter = split_csv(v);
    } else if (arg == "--tx") {
      const auto n = uint_flag("--tx", next(), kMaxTx);
      if (!n) return usage();
      tx = static_cast<int>(*n);
    } else if (arg == "--threshold") {
      const char* v = next();
      if (!v) return usage();
      const auto t = stba::parse_threshold(v);
      if (!t) {
        std::fprintf(stderr,
                     "invalid --threshold '%s': expected a number in (0, 1]\n",
                     v);
        return usage();
      }
      threshold = *t;
    } else if (arg == "--fault") {
      const char* v = next();
      if (!v || !regress::set_fault_by_name(faults, v)) {
        std::fprintf(stderr, "unknown fault '%s'\n", v ? v : "");
        return 2;
      }
    } else if (arg == "--no-alignment") {
      alignment = false;
    } else if (arg == "--jobs") {
      const auto n = uint_flag("--jobs", next(), kMaxJobs);
      if (!n) return usage();
      jobs = static_cast<unsigned>(*n);
    } else if (arg == "--sim-kernel") {
      const char* v = next();
      if (!v) return usage();
      const std::string k = v;
      if (k == "compiled") {
        kernel = sim::KernelKind::kCompiled;
      } else if (k == "interp") {
        kernel = sim::KernelKind::kInterp;
      } else {
        std::fprintf(stderr, "unknown kernel '%s'\n", v);
        return 2;
      }
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return usage();
      json_path = v;
    } else if (arg == "--no-triage") {
      triage = false;
    } else if (arg == "--no-lint") {
      lint = false;
    } else if (arg == "--no-design-lint") {
      design_lint = false;
    } else if (arg == "--design-selftest") {
      design_selftest = true;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (!v) return usage();
      cache_dir = v;
    } else if (arg == "--cache-max-mb") {
      const auto n = uint_flag("--cache-max-mb", next(), kMaxCacheMb);
      if (!n) return usage();
      cache_max_mb = *n;
    } else if (arg == "--cache-stats") {
      const char* v = next();
      if (!v) return usage();
      cache_stats_path = v;
    } else if (arg == "--emit-specs") {
      const char* v = next();
      if (!v) return usage();
      emit_specs_path = v;
    } else if (arg == "--triage-window") {
      const auto n = uint_flag("--triage-window", next(), kMaxU64);
      if (!n) return usage();
      triage_window = *n;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (!v) return usage();
      baseline_path = v;
    } else if (arg == "--diff") {
      const char* v = next();
      if (!v) return usage();
      diff_path = v;
    } else if (arg == "--gate-rate-drop") {
      const auto x = tolerance_flag("--gate-rate-drop", next());
      if (!x) return usage();
      gates.max_rate_drop = *x;
    } else if (arg == "--gate-coverage-drop") {
      const auto x = tolerance_flag("--gate-coverage-drop", next());
      if (!x) return usage();
      gates.max_coverage_drop = *x;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return usage();
      metrics_path = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return usage();
      trace_path = v;
    } else if (arg == "--profile-out") {
      const char* v = next();
      if (!v) return usage();
      profile_path = v;
    } else if (arg == "--txn-trace-out") {
      const char* v = next();
      if (!v) return usage();
      txn_path = v;
    } else if (arg == "--progress-out") {
      const char* v = next();
      if (!v) return usage();
      progress_path = v;
    } else if (arg == "--progress") {
      progress_tty = true;
    } else if (arg == "--flight-recorder") {
      const auto n = uint_flag("--flight-recorder", next(), kMaxFlightLines);
      if (!n) return usage();
      flight_lines = *n;
    } else {
      return usage();
    }
  }

  if (!sample_dir.empty()) {
    write_sample_configs(sample_dir);
    return 0;
  }

  // Negative check for the design-lint gate: lint a deliberately defective
  // elaboration and exit with its code. CI asserts this is 2 — proof the
  // preflight actually refuses broken designs, not just that shipped
  // configs happen to be clean.
  if (design_selftest) {
    const auto dres = crve::lint::lint_design_selftest();
    std::fprintf(stderr, "%s", crve::lint::render_text(dres.report).c_str());
    return dres.report.exit_code();
  }

  if (config_dir.empty()) return usage();
  if (!cache_stats_path.empty() && cache_dir.empty()) {
    std::fprintf(stderr, "--cache-stats requires --cache-dir\n");
    return usage();
  }

  // Pre-flight lint: catch semantically broken configurations before any
  // testbench is built — a bad deadline list should fail in milliseconds,
  // not surface hours into a campaign. Errors stop the run; warnings and
  // notes are printed and the campaign proceeds.
  if (lint) {
    const auto lrep = crve::lint::lint_config_dir(config_dir);
    if (!lrep.findings.empty()) {
      std::fprintf(stderr, "%s", crve::lint::render_text(lrep).c_str());
    }
    if (lrep.exit_code() >= 2) {
      std::fprintf(stderr,
                   "lint: refusing to run a campaign over broken configs in "
                   "%s (--no-lint to bypass)\n",
                   config_dir.c_str());
      return 2;
    }
  }

  std::vector<stbus::NodeConfig> configs;
  try {
    configs = regress::configs_from_dir(config_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (configs.empty()) {
    std::fprintf(stderr, "no .cfg files in %s\n", config_dir.c_str());
    return 2;
  }

  // Design-lint preflight (DESIGN.md §17): elaborate every configuration's
  // testbench on both views — initialize() only, no cycles simulated — and
  // run the CRVE1xx structural rules over the exported design graphs. A
  // contested signal or an undriven read should fail here in milliseconds,
  // not as an alignment mystery hours into the campaign. Error findings
  // stop the run; warnings and notes are printed and the campaign proceeds.
  // The per-(config, view) summaries feed the design_<config>.json
  // artifacts and the dashboard's "Design health" panel.
  std::vector<crve::lint::DesignSummary> design_summaries;
  if (design_lint) {
    const auto dres = crve::lint::lint_design_dir(config_dir);
    if (!dres.report.findings.empty()) {
      std::fprintf(stderr, "%s",
                   crve::lint::render_text(dres.report).c_str());
    }
    if (dres.report.exit_code() >= 2) {
      std::fprintf(stderr,
                   "design-lint: refusing to run a campaign over "
                   "structurally broken designs in %s "
                   "(--no-design-lint to bypass)\n",
                   config_dir.c_str());
      return 2;
    }
    design_summaries = dres.summaries;
  }

  std::vector<verif::TestSpec> tests;
  for (const auto& spec : verif::catg_test_suite()) {
    if (test_filter.empty()) {
      tests.push_back(spec);
      continue;
    }
    for (const auto& f : test_filter) {
      if (spec.name.rfind(f, 0) == 0) {
        tests.push_back(spec);
        break;
      }
    }
  }
  if (tests.empty()) {
    std::fprintf(stderr, "no tests match the --tests filter\n");
    return 2;
  }

  regress::RunPlan base;
  base.tests = tests;
  base.kernel = kernel;
  base.seeds = seeds;
  base.n_transactions = tx;
  base.run_alignment = alignment;
  base.alignment_threshold = threshold;
  base.faults = faults;
  base.out_dir = out_dir;
  base.jobs = jobs;
  base.run_triage = triage;
  base.triage_window = triage_window;
  base.cache_dir = cache_dir;
  base.cache_max_mb = cache_max_mb;
  base.profile_out = profile_path;
  base.txn_trace_out = txn_path;
  for (const auto& s : design_summaries) {
    regress::DesignHealth h;
    h.config = s.config;
    h.view = s.view;
    h.signals = s.signals;
    h.comb_processes = s.comb_processes;
    h.clocked_processes = s.clocked_processes;
    h.ranks = s.ranks;
    h.max_fanout = s.max_fanout;
    h.max_fanout_signal = s.max_fanout_signal;
    h.errors = s.errors;
    h.warnings = s.warnings;
    h.notes = s.notes;
    base.design_health.push_back(h);
  }

  if (!diff_path.empty() && baseline_path.empty()) {
    std::fprintf(stderr, "--diff requires --baseline\n");
    return usage();
  }

  // Campaign-plan sanity: duplicate (test, seed) rows and out-of-range
  // thresholds are user input the config files cannot vouch for.
  if (lint) {
    crve::lint::CampaignSpec spec;
    for (const auto& t : base.tests) spec.tests.push_back(t.name);
    spec.seeds = base.seeds;
    spec.alignment_threshold = base.alignment_threshold;
    const auto lrep = crve::lint::lint_campaign(spec);
    if (!lrep.findings.empty()) {
      std::fprintf(stderr, "%s", crve::lint::render_text(lrep).c_str());
    }
    if (lrep.exit_code() >= 2) {
      std::fprintf(stderr,
                   "lint: refusing to run a broken campaign plan "
                   "(--no-lint to bypass)\n");
      return 2;
    }
  }

  // Cache provenance pre-flight (CRVE060, warn severity — never blocks):
  // a sanitizer build probing an uninstrumented cache re-runs everything.
  if (lint && !cache_dir.empty()) {
    const auto lrep =
        crve::lint::lint_cache_provenance(cache_dir, build_info().sanitize);
    if (!lrep.findings.empty()) {
      std::fprintf(stderr, "%s", crve::lint::render_text(lrep).c_str());
    }
  }

  // The planner's dry run: probe the cache, write the pair jobs the
  // campaign would simulate, and run nothing.
  if (!emit_specs_path.empty()) {
    try {
      const auto mplan = regress::Regression::plan_matrix(configs, base);
      std::ofstream os(emit_specs_path);
      os << regress::format_job_specs(mplan.missing);
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     emit_specs_path.c_str());
        return 2;
      }
      std::printf("plan: %zu of %zu pairs missing (%zu cached) -> %s\n",
                  mplan.missing.size(), mplan.total_pairs, mplan.cached_pairs,
                  emit_specs_path.c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  for (const auto& cfg : configs) {
    std::printf("=== %s ===\n", cfg.summary().c_str());
  }

  // Fail-fast: reject unwritable output paths before any simulation runs.
  for (const std::string* p : {&json_path, &diff_path, &cache_stats_path,
                               &metrics_path, &trace_path, &profile_path,
                               &txn_path, &progress_path}) {
    if (!check_writable(*p)) return usage();
  }

  // Per-config design-summary artifacts, next to where report.json will
  // land. Written before the campaign: the summaries are elaboration facts,
  // valid whether or not the batch subsequently signs off.
  if (!design_summaries.empty() && !out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    std::vector<std::string> config_order;
    for (const auto& s : design_summaries) {
      if (std::find(config_order.begin(), config_order.end(), s.config) ==
          config_order.end()) {
        config_order.push_back(s.config);
      }
    }
    for (const auto& name : config_order) {
      std::vector<crve::lint::DesignSummary> subset;
      for (const auto& s : design_summaries) {
        if (s.config == name) subset.push_back(s);
      }
      const std::string path = out_dir + "/design_" +
                               regress::sanitize_artifact_name(name) +
                               ".json";
      std::ofstream os(path);
      os << crve::lint::design_summary_json(subset);
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 2;
      }
    }
  }

  // Observability setup (all off by default; see DESIGN.md §10, §15).
  if (!metrics_path.empty()) obs::set_metrics_enabled(true);
  if (!trace_path.empty()) obs::trace_begin();
  std::unique_ptr<FlightRecorder> recorder;
  if (flight_lines > 0) {
    recorder = std::make_unique<FlightRecorder>(flight_lines);
    set_flight_recorder(recorder.get(), LogLevel::kInfo);
  }
  std::unique_ptr<regress::ProgressTracker> progress;
  if (!progress_path.empty() || progress_tty) {
    regress::ProgressOptions popts;
    popts.out_path = progress_path;
    popts.tty = progress_tty;
    try {
      progress = std::make_unique<regress::ProgressTracker>(popts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return usage();
    }
    base.progress = progress.get();
  }

  int exit_code = 1;
  try {
    const auto mres = regress::Regression::run_matrix(configs, base);
    for (const auto& res : mres.results) {
      std::printf("--- %s ---\n%s\n", res.config_name.c_str(),
                  res.summary().c_str());
    }
    std::printf("%s", mres.summary().c_str());
    exit_code = mres.all_signed_off ? 0 : 1;
    if (!cache_stats_path.empty()) {
      std::ofstream os(cache_stats_path);
      os << "{\n  \"build\": " << build_info_json("  ") << ",\n"
         << "  \"cache\": "
         << (mres.cache_stats_json.empty() ? "{}" : mres.cache_stats_json)
         << "\n}\n";
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     cache_stats_path.c_str());
        exit_code = exit_code == 0 ? 1 : exit_code;
      }
    }
    if (!json_path.empty()) {
      std::ofstream os(json_path);
      os << mres.json();
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
        exit_code = 1;
      }
    }
    if (!baseline_path.empty()) {
      std::ifstream bis(baseline_path);
      if (!bis) {
        std::fprintf(stderr, "error: cannot read baseline %s\n",
                     baseline_path.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << bis.rdbuf();
      const auto base_doc = crve::json::parse(buf.str());
      const auto cur_doc = crve::json::parse(mres.json());
      const auto drift = regress::compute_drift(base_doc, cur_doc, gates);
      std::printf("%s", drift.summary().c_str());
      if (!diff_path.empty()) {
        std::ofstream os(diff_path);
        os << drift.json();
        if (!os) {
          std::fprintf(stderr, "error: cannot write %s\n", diff_path.c_str());
          exit_code = exit_code == 0 ? 1 : exit_code;
        }
      }
      // The drift gate only refines a passing campaign; a hard campaign
      // failure keeps exit code 1.
      if (!drift.ok() && exit_code == 0) exit_code = 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    exit_code = 1;
  }

  // Flush observability outputs even when the batch failed or threw — a
  // broken campaign is exactly when the trace and metrics matter.
  if (!trace_path.empty()) {
    try {
      obs::trace_end_file(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      exit_code = exit_code == 0 ? 1 : exit_code;
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    // Stamp build provenance as the leading member; the registry sections
    // keep their documented paths (.counters / .gauges / .histograms).
    std::string doc = obs::registry().json(/*include_timing=*/true);
    doc.insert(2, "  \"build\": " + build_info_json("  ") + ",\n");
    os << doc;
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
      exit_code = exit_code == 0 ? 1 : exit_code;
    }
  }
  if (recorder) set_flight_recorder(nullptr);
  return exit_code;
}

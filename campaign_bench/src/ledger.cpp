#include "ledger.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "campaign.h"
#include "common.h"
#include "common/build_info.h"
#include "common/json.h"
#include "regress/config_file.h"
#include "regress/html_report.h"
#include "regress/job_spec.h"
#include "stba/analyzer.h"
#include "stba/triage.h"
#include "vcd/excerpt.h"
#include "vcd/parser.h"

namespace cbench {

namespace fs = std::filesystem;
using crve::regress::MatrixResult;
using crve::regress::RunPlan;
using crve::verif::ModelKind;
using crve::verif::RunResult;
using crve::verif::Testbench;
using crve::verif::TestbenchOptions;
using crve::verif::TestSpec;

namespace {

// Work the serial runner counts where it happens.
struct Counters {
  std::uint64_t vcd_bytes = 0;     // waves written by the view jobs
  std::uint64_t vcd_pairs = 0;
  std::uint64_t parsed_bytes = 0;  // waves read back for STBA
  std::uint64_t stba_changes = 0;  // change events STBA merges
  std::uint64_t obs_bytes = 0;     // profiler + txn-tracer artifacts
  std::uint64_t obs_pairs = 0;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<std::vector<PairRecord>> records;  // per slice
  Counters n;
  std::map<std::string, double> self_ms;
  std::string spans_json;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

// The per-job text report the runner writes next to each view's wave.
std::string job_report(const std::string& test, std::uint64_t seed,
                       const char* view, const RunResult& r) {
  std::ostringstream os;
  os << "test " << test << " seed " << seed << " model " << view << "\n"
     << "  completed: " << (r.completed ? "yes" : "NO") << " in " << r.cycles
     << " cycles\n  checker violations: " << r.checker_violations << "\n";
  for (const auto& v : r.violations) {
    os << "    @" << v.cycle << " " << v.port << " [" << v.rule << "] "
       << v.message << "\n";
  }
  os << "  scoreboard errors: " << r.scoreboard_errors << "\n";
  for (const auto& e : r.sb_errors) {
    os << "    @" << e.cycle << " " << e.where << " " << e.message << "\n";
  }
  os << "  functional coverage: " << r.coverage_percent << "%\n";
  for (const auto& u : r.utilisation) {
    os << "    " << u.port << ": " << u.busy_cycles << " / "
       << u.request_packets << " / " << u.response_packets << "\n";
  }
  return os.str();
}

PairRecord make_record(const std::string& key, const RunResult& rtl,
                       const RunResult& bca,
                       const crve::stba::AlignmentReport* rep) {
  PairRecord rec;
  rec.key = key;
  rec.rtl_passed = rtl.passed();
  rec.bca_passed = bca.passed();
  rec.rtl_completed = rtl.completed;
  rec.bca_completed = bca.completed;
  rec.rtl_cycles = rtl.cycles;
  rec.bca_cycles = bca.cycles;
  rec.rtl_evaluations = rtl.evaluations;
  rec.bca_evaluations = bca.evaluations;
  rec.rtl_digest = rtl.coverage_digest;
  rec.bca_digest = bca.coverage_digest;
  rec.rtl_coverage = rtl.coverage_percent;
  rec.aligned = rep != nullptr;
  if (rep) {
    for (const auto& port : rep->ports) {
      rec.ports.push_back({port.aligned_cycles, port.total_cycles});
    }
  }
  return rec;
}

// Options of one view job exactly as the runner builds them.
TestbenchOptions unit_options(const RunPlan& plan, int view,
                              std::uint64_t seed, bool obs_sinks) {
  TestbenchOptions opts;
  opts.model = view == 0 ? ModelKind::kRtl : ModelKind::kBca;
  opts.kernel = plan.kernel;
  opts.seed = seed;
  opts.max_cycles = plan.max_cycles;
  opts.profile = obs_sinks;
  opts.txn_trace = obs_sinks;
  if (view == 1) opts.faults = plan.faults;
  return opts;
}

TestSpec sized(const TestSpec& spec, const RunPlan& plan) {
  TestSpec s = spec;
  if (plan.n_transactions > 0) s.n_transactions = plan.n_transactions;
  return s;
}

const char* const kViews[2] = {"rtl", "bca"};

// One pair simulated the way the runner's jobs do it, each layer call
// inside its span.
PairRecord simulate_pair(const Workload& w, Tracer& tr, const RunPlan& plan,
                         const TestSpec& spec, std::uint64_t seed,
                         const std::string& key, const std::string& out_dir,
                         crve::cache::Cache* cache, Counters& n) {
  const bool to_disk = !out_dir.empty();
  const bool waves = plan.run_alignment || to_disk;
  const std::string stem = crve::regress::sanitize_artifact_name(spec.name) +
                           "_s" + std::to_string(seed);
  const TestSpec s = sized(spec, plan);
  RunResult res[2];
  std::string wave[2];
  std::string wave_path[2];
  for (int v = 0; v < 2; ++v) {
    TestbenchOptions opts = unit_options(plan, v, seed, w.to_disk);
    std::ostringstream ws;
    if (waves) {
      if (to_disk) {
        wave_path[v] = out_dir + "/" + stem + "_" + kViews[v] + ".vcd";
        opts.vcd_path = wave_path[v];
      } else {
        opts.vcd_stream = &ws;
      }
    }
    std::optional<Testbench> tb;
    {
      Tracer::Scope span(tr, "verif.elaborate");
      tb.emplace(plan.cfg, s, opts);
    }
    {
      Tracer::Scope span(tr, v == 0 ? "verif.run.rtl" : "verif.run.bca");
      res[v] = tb->run();
      tb.reset();  // flushes and closes the wave
    }
    if (waves) {
      wave[v] = std::move(ws).str();
      n.vcd_bytes += to_disk ? fs::file_size(wave_path[v]) : wave[v].size();
    }
    if (to_disk) {
      Tracer::Scope span(tr, "regress.artifact_write");
      write_text(out_dir + "/report_" + stem + "_" + kViews[v] + ".txt",
                 job_report(spec.name, seed, kViews[v], res[v]));
      if (opts.profile) {
        const std::string doc = crve::obs::profile_json(res[v].profile);
        write_text(out_dir + "/profile_" + stem + "_" + kViews[v] + ".json",
                   doc);
        n.obs_bytes += doc.size();
      }
      if (opts.txn_trace) {
        const std::string doc = crve::obs::txn_json(res[v].txn, true);
        const std::string chrome = crve::obs::txn_chrome_trace(res[v].txn);
        write_text(out_dir + "/txn_" + stem + "_" + kViews[v] + ".json", doc);
        write_text(
            out_dir + "/txn_" + stem + "_" + kViews[v] + ".trace.json",
            chrome);
        n.obs_bytes += doc.size() + chrome.size();
      }
    }
  }
  if (waves) ++n.vcd_pairs;
  if (w.to_disk) ++n.obs_pairs;

  std::optional<crve::stba::AlignmentReport> rep;
  if (plan.run_alignment) {
    crve::vcd::Trace ta, tb;
    {
      Tracer::Scope span(tr, "vcd.parse");
      if (to_disk) {
        ta = crve::vcd::Trace::parse_file(wave_path[0]);
        tb = crve::vcd::Trace::parse_file(wave_path[1]);
      } else {
        std::istringstream a(wave[0]);
        std::istringstream b(wave[1]);
        ta = crve::vcd::Trace::parse(a);
        tb = crve::vcd::Trace::parse(b);
      }
    }
    n.parsed_bytes += to_disk ? fs::file_size(wave_path[0]) +
                                    fs::file_size(wave_path[1])
                              : wave[0].size() + wave[1].size();
    const auto ports = alignment_ports(plan.cfg, spec);
    {
      Tracer::Scope span(tr, "stba.compare");
      rep = crve::stba::Analyzer::compare(ta, tb, ports);
    }
    {
      Tracer::Scope span(tr, "bench.count");
      for (const auto& port : ports) {
        for (const crve::vcd::Trace* t : {&ta, &tb}) {
          for (int var : crve::stba::Analyzer::resolve_port_fields(*t, port)) {
            if (var >= 0) n.stba_changes += t->changes(var).size();
          }
        }
      }
    }
    if (to_disk) {
      {
        Tracer::Scope span(tr, "regress.artifact_write");
        write_text(out_dir + "/alignment_" + stem + ".txt", rep->summary());
      }
      if (plan.run_triage && !rep->signed_off(plan.alignment_threshold)) {
        crve::stba::TriageReport tri;
        {
          Tracer::Scope span(tr, "stba.triage");
          tri = crve::stba::Triage::analyze(ta, tb, ports);
        }
        std::vector<std::pair<std::string, std::string>> context = {
            {"config", plan.cfg.name},
            {"test", spec.name},
            {"seed", std::to_string(seed)},
            {"vcd_a", stem + "_rtl.vcd"},
            {"vcd_b", stem + "_bca.vcd"},
        };
        if (tri.any_diverged()) {
          Tracer::Scope span(tr, "vcd.excerpt");
          const std::uint64_t win = plan.triage_window;
          const std::uint64_t begin =
              tri.first_divergence > win ? tri.first_divergence - win : 0;
          const std::uint64_t end = tri.first_divergence + win;
          crve::vcd::write_excerpt_file(
              ta, begin, end, out_dir + "/excerpt_" + stem + "_rtl.vcd");
          crve::vcd::write_excerpt_file(
              tb, begin, end, out_dir + "/excerpt_" + stem + "_bca.vcd");
          context.push_back({"excerpt_a", "excerpt_" + stem + "_rtl.vcd"});
          context.push_back({"excerpt_b", "excerpt_" + stem + "_bca.vcd"});
        }
        Tracer::Scope span(tr, "regress.artifact_write");
        std::vector<std::pair<std::string, std::string>> sections;
        if (!res[0].txn.empty() || !res[1].txn.empty()) {
          sections.push_back({"txn_in_flight", crve::stba::txn_flight_json(
                                                   tri, res[0].txn,
                                                   res[1].txn)});
        }
        write_text(out_dir + "/triage_" + stem + ".json",
                   tri.json(context, sections));
      }
    }
  }

  if (cache) {
    Tracer::Scope span(tr, "cache.store");
    crve::regress::PairResult pr;
    pr.rtl = {spec.name, seed, ModelKind::kRtl, res[0], 0.0, false};
    pr.bca = {spec.name, seed, ModelKind::kBca, res[1], 0.0, false};
    pr.has_alignment = rep.has_value();
    if (rep) pr.alignment = {spec.name, seed, *rep, 0.0, false};
    const crve::BuildInfo& bi = crve::build_info();
    pr.git_hash = bi.git_hash;
    pr.compiler = bi.compiler;
    pr.build_type = bi.build_type;
    pr.sanitize = bi.sanitize;
    std::vector<std::pair<std::string, std::string>> files;
    for (const std::string& name :
         {"report_" + stem + "_rtl.txt", "report_" + stem + "_bca.txt",
          "alignment_" + stem + ".txt", "triage_" + stem + ".json",
          "excerpt_" + stem + "_rtl.vcd", "excerpt_" + stem + "_bca.vcd"}) {
      if (fs::exists(out_dir + "/" + name)) {
        files.push_back({name, out_dir + "/" + name});
      }
    }
    const std::string hash =
        crve::regress::job_spec_for(plan, spec, seed).hash();
    cache->store(hash, crve::regress::encode_pair_result(pr, hash), files);
  }
  return make_record(key, res[0], res[1], rep ? &*rep : nullptr);
}

// One pair replayed from the warm cache: fetch, decode, materialize.
PairRecord replay_pair(Tracer& tr, const RunPlan& plan, const TestSpec& spec,
                       std::uint64_t seed, const std::string& key,
                       const std::string& out_dir, crve::cache::Cache& cache) {
  const std::string hash =
      crve::regress::job_spec_for(plan, spec, seed).hash();
  crve::regress::PairResult pr;
  {
    Tracer::Scope span(tr, "cache.fetch");
    const std::optional<std::string> payload = cache.fetch(hash);
    if (!payload) throw std::runtime_error("warm cache misses " + key);
    pr = crve::regress::decode_pair_result(*payload);
  }
  {
    Tracer::Scope span(tr, "cache.materialize");
    cache.materialize(hash, out_dir);
  }
  return make_record(key, pr.rtl.result, pr.bca.result,
                     pr.has_alignment ? &pr.alignment.report : nullptr);
}

Pass serial_pass(const Workload& w, bool traced,
                 const std::vector<MatrixResult>& e2e,
                 const std::string& dir) {
  Pass out;
  Tracer tr(traced);
  const auto t0 = Clock::now();
  {
    Tracer::Scope root(tr, "campaign");
    const std::string cache_dir = w.warm         ? w.dir + "/cache"
                                  : w.cold_cache ? dir + "/cache"
                                                 : std::string();
    Preflight pre = preflight(w, cache_dir, tr);
    for (std::size_t i = 0; i < w.slices.size(); ++i) {
      const Slice& slice = w.slices[i];
      RunPlan plan = w.base_plan(slice);
      plan.cache_dir = cache_dir;
      {
        Tracer::Scope span(tr, "cache.probe");
        crve::regress::Regression::plan_matrix(pre.configs[i], plan);
      }
      std::vector<PairRecord> records;
      for (const auto& cfg : pre.configs[i]) {
        plan.cfg = cfg;
        std::string out_dir;
        if (w.to_disk || w.warm) {
          out_dir = dir + "/out/" + slice.name + "/" + cfg.name;
          fs::create_directories(out_dir);
        }
        for (const TestSpec& spec : plan.tests) {
          for (std::uint64_t seed : plan.seeds) {
            const std::string key = slice.name + "/" + cfg.name + "/" +
                                    spec.name + "/s" + std::to_string(seed);
            records.push_back(
                w.warm ? replay_pair(tr, plan, spec, seed, key, out_dir,
                                     *pre.cache)
                       : simulate_pair(w, tr, plan, spec, seed, key, out_dir,
                                       pre.cache.get(), out.n));
          }
        }
      }
      out.records.push_back(std::move(records));
      Tracer::Scope span(tr, "regress.report");
      const std::string report = e2e[i].json();
      const std::string dashboard = crve::regress::html_report(e2e[i]);
      if (report.empty() || dashboard.empty()) {
        throw std::runtime_error("empty batch report");
      }
    }
  }
  out.wall_s = seconds_since(t0);
  out.self_ms = tr.self_ms();
  if (traced) out.spans_json = tr.json();
  return out;
}

// Sink costs by ablation: every view job of the workload is run once as
// the campaign runs it and once with one sink off, in rotating order so
// drift cancels; each sink's cost is the summed difference.
struct Ablation {
  double vcd_ms = 0.0;
  double profile_ms = 0.0;
  double txn_ms = 0.0;
  std::size_t jobs = 0;
};

Ablation ablate(const Workload& w, const std::string& dir) {
  Ablation a;
  const bool waves = w.alignment || w.to_disk;
  if (w.warm || (!waves && !w.to_disk)) return a;
  fs::create_directories(dir);
  enum Variant { kBase, kNoVcd, kNoProfile, kNoTxn };
  std::vector<Variant> variants = {kBase};
  if (waves) variants.push_back(kNoVcd);
  if (w.to_disk) {
    variants.push_back(kNoProfile);
    variants.push_back(kNoTxn);
  }
  for (const Slice& slice : w.slices) {
    RunPlan plan = w.base_plan(slice);
    for (const auto& cfg : crve::regress::configs_from_dir(slice.config_dir)) {
      plan.cfg = cfg;
      for (const TestSpec& spec : plan.tests) {
        const TestSpec s = sized(spec, plan);
        for (std::uint64_t seed : plan.seeds) {
          for (int v = 0; v < 2; ++v) {
            double ms[4] = {0, 0, 0, 0};
            for (std::size_t k = 0; k < variants.size(); ++k) {
              const Variant var = variants[(k + a.jobs) % variants.size()];
              TestbenchOptions opts = unit_options(plan, v, seed, w.to_disk);
              std::ostringstream ws;
              if (waves && var != kNoVcd) {
                if (w.to_disk) {
                  opts.vcd_path = dir + "/wave.vcd";
                } else {
                  opts.vcd_stream = &ws;
                }
              }
              if (var == kNoProfile) opts.profile = false;
              if (var == kNoTxn) opts.txn_trace = false;
              const auto t0 = Clock::now();
              {
                Testbench tb(cfg, s, opts);
                tb.run();
              }
              ms[var] = seconds_since(t0) * 1e3;
            }
            ++a.jobs;
            if (waves) a.vcd_ms += ms[kBase] - ms[kNoVcd];
            if (w.to_disk) {
              a.profile_ms += ms[kBase] - ms[kNoProfile];
              a.txn_ms += ms[kBase] - ms[kNoTxn];
            }
          }
        }
      }
    }
  }
  return a;
}

double cache_hit_ratio(const std::vector<MatrixResult>& results) {
  double hits = 0.0, misses = 0.0;
  for (const auto& m : results) {
    if (m.cache_stats_json.empty()) continue;
    const crve::json::Value v = crve::json::parse(m.cache_stats_json);
    hits += v.number_or("hits", 0.0);
    misses += v.number_or("misses", 0.0);
  }
  return hits + misses > 0 ? hits / (hits + misses) : -1.0;
}

bool same_records(const std::vector<std::vector<PairRecord>>& a,
                  const std::vector<std::vector<PairRecord>>& b,
                  std::string& first_diff) {
  if (a.size() != b.size()) {
    first_diff = "slice count";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      first_diff = "pair count of slice " + std::to_string(i);
      return false;
    }
    for (std::size_t p = 0; p < a[i].size(); ++p) {
      if (a[i][p].line() != b[i][p].line()) {
        first_diff = a[i][p].line() + " vs " + b[i][p].line();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int run_traced(const Workload& w, double seconds) {
  const auto start = Clock::now();
  bool correct = true;
  std::vector<std::string> problems;

  // The end-to-end repetition whose verdicts, cycles and alignment rates
  // the serial runner has to reproduce exactly.
  settle_disk();
  RepResult e2e = run_rep(w, w.dir + "/e2e");
  fs::remove_all(w.dir + "/e2e");
  const Verdicts ev = judge(w, e2e.records);
  if (ev.wrong > 0) {
    correct = false;
    problems.insert(problems.end(), ev.problems.begin(), ev.problems.end());
  }

  // Traced and untraced serial passes, alternated; at least one of each.
  std::vector<Pass> traced;
  std::vector<double> untraced_s;
  do {
    // Alternate which pass goes first so warm-up and drift do not land on
    // one side of the overhead figure.
    const bool traced_first = traced.size() % 2 == 0;
    for (int k = 0; k < 2; ++k) {
      settle_disk();
      if ((k == 0) == traced_first) {
        traced.push_back(
            serial_pass(w, true, e2e.results, w.dir + "/serial"));
      } else {
        untraced_s.push_back(
            serial_pass(w, false, e2e.results, w.dir + "/serial").wall_s);
      }
      fs::remove_all(w.dir + "/serial");
    }
    std::string diff;
    if (!same_records(traced.back().records, e2e.records, diff)) {
      correct = false;
      problems.push_back("serial runner diverges from run_matrix: " + diff);
    }
  } while (seconds_since(start) < 0.5 * seconds && traced.size() < 15);

  const Ablation ab = ablate(w, w.dir + "/ablate");
  fs::remove_all(w.dir + "/ablate");

  std::map<std::string, std::vector<double>> self;
  std::vector<double> traced_s;
  for (const Pass& p : traced) {
    traced_s.push_back(p.wall_s);
    for (const auto& [name, ms] : p.self_ms) self[name].push_back(ms);
  }
  auto self_med = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const Counters& n = traced.front().n;
  const double traced_wall = median(traced_s);
  const double untraced_wall = median(untraced_s);
  const double overhead_pct = 100.0 * (traced_wall / untraced_wall - 1.0);
  const double parse_ms = self_med("vcd.parse");
  const double hit_ratio = cache_hit_ratio(e2e.results);
  const std::uint64_t cycles = ev.rtl_cycles + ev.bca_cycles;

  // Every per-layer metric, with the reason where one does not apply.
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string na;  // non-empty: not applicable, and why
  };
  const std::string no_sim = "replays from the cache, simulates nothing";
  const std::string no_waves =
      w.warm ? no_sim : "no VCD sink: alignment off, artifacts in memory";
  const std::string no_stba =
      w.warm ? no_sim : "STBA off (functional regression)";
  const std::string no_disk =
      "artifacts stay in memory, so no triage or excerpts";
  const std::string no_obs = "profiler and txn tracer off";
  const bool sim = !w.warm;
  auto na_if = [](bool applies, const std::string& why) {
    return applies ? std::string() : why;
  };
  std::vector<Row> rows = {
      {"lint.config_ms", self_med("lint.config"), "ms", ""},
      {"lint.design_ms", self_med("lint.design"), "ms", ""},
      {"regress.config_load_ms", self_med("regress.config_load"), "ms", ""},
      {"verif.elaborate_ms", self_med("verif.elaborate"), "ms",
       na_if(sim, no_sim)},
      {"verif.run_ms.rtl", self_med("verif.run.rtl"), "ms",
       na_if(sim, no_sim)},
      {"verif.run_ms.bca", self_med("verif.run.bca"), "ms",
       na_if(sim, no_sim)},
      {"verif.cycles.rtl", static_cast<double>(ev.rtl_cycles), "count", ""},
      {"verif.cycles.bca", static_cast<double>(ev.bca_cycles), "count", ""},
      {"verif.capped_cycle_share",
       cycles ? static_cast<double>(ev.capped_cycles) / cycles : 0.0,
       "share", ""},
      {"sim.evals_per_cycle.rtl",
       ev.rtl_cycles ? static_cast<double>(ev.rtl_evaluations) / ev.rtl_cycles
                     : 0.0,
       "count", ""},
      {"sim.evals_per_cycle.bca",
       ev.bca_cycles ? static_cast<double>(ev.bca_evaluations) / ev.bca_cycles
                     : 0.0,
       "count", ""},
      {"vcd.write_ms", ab.vcd_ms, "ms", na_if(n.vcd_pairs > 0, no_waves)},
      {"vcd.bytes", n.vcd_pairs ? static_cast<double>(n.vcd_bytes) / n.vcd_pairs
                                : 0.0,
       "bytes/pair", na_if(n.vcd_pairs > 0, no_waves)},
      {"vcd.parse_ms", parse_ms, "ms", na_if(w.alignment && sim, no_stba)},
      {"vcd.parse_mb_per_s",
       parse_ms > 0 ? n.parsed_bytes / 1e6 / (parse_ms / 1e3) : 0.0, "MB/s",
       na_if(w.alignment && sim, no_stba)},
      {"vcd.excerpt_ms", self_med("vcd.excerpt"), "ms",
       na_if(w.to_disk, no_disk)},
      {"stba.compare_ms", self_med("stba.compare"), "ms",
       na_if(w.alignment && sim, no_stba)},
      {"stba.changes", static_cast<double>(n.stba_changes), "count",
       na_if(w.alignment && sim, no_stba)},
      {"stba.triage_ms", self_med("stba.triage"), "ms",
       na_if(w.to_disk, no_disk)},
      {"obs.txn_trace_ms", ab.txn_ms, "ms", na_if(w.to_disk, no_obs)},
      {"obs.profile_ms", ab.profile_ms, "ms", na_if(w.to_disk, no_obs)},
      {"obs.artifact_bytes",
       n.obs_pairs ? static_cast<double>(n.obs_bytes) / n.obs_pairs : 0.0,
       "bytes/pair", na_if(w.to_disk, no_obs)},
      {"cache.open_ms", self_med("cache.open"), "ms",
       na_if(w.warm || w.cold_cache, "no cache")},
      {"cache.probe_ms", self_med("cache.probe"), "ms", ""},
      {"cache.fetch_ms", self_med("cache.fetch"), "ms",
       na_if(w.warm, "nothing to replay")},
      {"cache.materialize_ms", self_med("cache.materialize"), "ms",
       na_if(w.warm, "nothing to replay")},
      {"cache.store_ms", self_med("cache.store"), "ms",
       na_if(w.cold_cache, w.warm ? "nothing new to store" : "no cache")},
      {"cache.hit_ratio", hit_ratio, "share",
       na_if(hit_ratio >= 0.0, "no cache")},
      {"regress.artifact_write_ms", self_med("regress.artifact_write"), "ms",
       na_if(w.to_disk, "artifacts stay in memory")},
      {"regress.report_ms", self_med("regress.report"), "ms", ""},
      {"regress.pool_busy_share",
       e2e.busy_job_ms / (e2e.campaign_s * 1e3 * static_cast<double>(kJobs)),
       "share", na_if(sim, "no job runs; replayed jobs carry the fill's walls")},
      {"other_ms", self_med("campaign"), "ms", ""},
      {"bench.count_ms", self_med("bench.count"), "ms", ""},
      {"ledger.wall_ms", traced_wall * 1e3, "ms", ""},
      {"ledger.untraced_wall_ms", untraced_wall * 1e3, "ms", ""},
      {"ledger.overhead_pct", overhead_pct, "%", ""},
  };

  std::printf("workload %s: traced serial ledger, %zu traced + %zu untraced "
              "passes, %zu ablation jobs\n",
              w.name.c_str(), traced.size(), untraced_s.size(), ab.jobs);
  for (const Row& r : rows) {
    if (r.na.empty()) {
      std::printf("  %-26s %.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    } else {
      std::printf("  %-26s n/a (%s)\n", r.name.c_str(), r.na.c_str());
    }
  }
  std::printf("cross-check: serial runner %s run_matrix on %zu pairs "
              "(verdicts, cycles, evaluations, digests, alignment rates)\n",
              correct ? "reproduces" : "DIVERGES FROM", ev.pairs);
  std::printf("determinism: sha256 %s stba.changes %llu\n", ev.digest.c_str(),
              static_cast<unsigned long long>(n.stba_changes));
  for (const auto& p : problems) std::printf("PROBLEM: %s\n", p.c_str());
  write_text(w.dir + "/spans.json", traced.back().spans_json);

  // BENCHMARK.json's per_layer set: the rows every listed workload
  // (signoff_c2, sparse_functional) measures.
  std::vector<Metric> metrics;
  for (const char* name :
       {"lint.config_ms", "lint.design_ms", "regress.config_load_ms",
        "verif.elaborate_ms", "verif.run_ms.rtl", "verif.run_ms.bca",
        "cache.probe_ms", "regress.report_ms", "regress.pool_busy_share",
        "other_ms", "ledger.wall_ms", "ledger.overhead_pct",
        "verif.cycles.rtl", "verif.cycles.bca", "sim.evals_per_cycle.rtl",
        "sim.evals_per_cycle.bca"}) {
    for (const Row& r : rows) {
      if (r.name == name) metrics.push_back({r.name, r.value, r.unit});
    }
  }
  std::printf("%s\n", result_json(correct, ev.pairs,
                                  correct ? ev.wrong : ev.pairs, metrics)
                          .c_str());
  return 0;
}

}  // namespace cbench

#include "campaign.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "common/sha256.h"
#include "regress/progress.h"

namespace cbench {

namespace fs = std::filesystem;
using crve::regress::MatrixResult;
using crve::regress::Regression;
using crve::regress::RunPlan;

double PairRecord::min_rate() const {
  double r = 1.0;
  for (const auto& [hit, total] : ports) {
    if (total > 0) r = std::min(r, static_cast<double>(hit) / total);
  }
  return r;
}

bool PairRecord::clean_signoff(double threshold) const {
  return rtl_passed && bca_passed && rtl_digest == bca_digest &&
         (!aligned || min_rate() >= threshold);
}

std::string PairRecord::line() const {
  std::ostringstream os;
  os << key << " rtl " << rtl_passed << rtl_completed << " " << rtl_cycles
     << " " << rtl_evaluations << " " << rtl_digest << " bca " << bca_passed
     << bca_completed << " " << bca_cycles << " " << bca_evaluations << " "
     << bca_digest << " align";
  for (const auto& [hit, total] : ports) os << " " << hit << "/" << total;
  return os.str();
}

std::vector<PairRecord> pair_records(const std::string& slice,
                                     const MatrixResult& m) {
  std::vector<PairRecord> out;
  for (const auto& r : m.results) {
    for (std::size_t p = 0; p < r.outcomes.size() / 2; ++p) {
      const auto& rtl = r.outcomes[2 * p];
      const auto& bca = r.outcomes[2 * p + 1];
      PairRecord rec;
      rec.key = slice + "/" + r.config_name + "/" + rtl.test + "/s" +
                std::to_string(rtl.seed);
      rec.rtl_passed = rtl.result.passed();
      rec.bca_passed = bca.result.passed();
      rec.rtl_completed = rtl.result.completed;
      rec.bca_completed = bca.result.completed;
      rec.rtl_cycles = rtl.result.cycles;
      rec.bca_cycles = bca.result.cycles;
      rec.rtl_evaluations = rtl.result.evaluations;
      rec.bca_evaluations = bca.result.evaluations;
      rec.rtl_digest = rtl.result.coverage_digest;
      rec.bca_digest = bca.result.coverage_digest;
      rec.rtl_coverage = rtl.result.coverage_percent;
      rec.aligned = p < r.alignments.size();
      if (rec.aligned) {
        for (const auto& port : r.alignments[p].report.ports) {
          rec.ports.push_back({port.aligned_cycles, port.total_cycles});
        }
      }
      out.push_back(std::move(rec));
    }
  }
  return out;
}

Verdicts judge(const Workload& w,
               const std::vector<std::vector<PairRecord>>& slices) {
  constexpr double kThreshold = 0.99;
  Verdicts v;
  std::string all_lines;
  auto problem = [&v](const std::string& what) {
    if (v.problems.size() < 12) v.problems.push_back(what);
  };
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const Slice& slice = w.slices[i];
    const bool clean = slice.fault.empty();
    bool checks = false, coverage = false, stba = false;
    for (const PairRecord& rec : slices[i]) {
      ++v.pairs;
      all_lines += rec.line() + "\n";
      v.coverage_sum += rec.rtl_coverage;
      ++v.coverage_n;
      v.rtl_cycles += rec.rtl_cycles;
      v.bca_cycles += rec.bca_cycles;
      v.rtl_evaluations += rec.rtl_evaluations;
      v.bca_evaluations += rec.bca_evaluations;
      if (!rec.rtl_completed) v.capped_cycles += rec.rtl_cycles;
      if (!rec.bca_completed) v.capped_cycles += rec.bca_cycles;
      bool ok = false;
      if (clean) {
        ok = rec.clean_signoff(kThreshold);
        if (rec.aligned) {
          v.min_clean_alignment =
              std::min(v.min_clean_alignment, rec.min_rate());
        }
      } else {
        ok = rec.rtl_passed;  // the faults live in the BCA view only
        checks = checks || !rec.bca_passed;
        coverage = coverage || rec.rtl_digest != rec.bca_digest;
        stba = stba || (rec.aligned && rec.min_rate() < kThreshold);
      }
      if (!ok) {
        ++v.wrong;
        problem("wrong verdict: " + rec.line());
      }
    }
    if (!clean) {
      std::string channels;
      if (checks) channels += "checks ";
      if (coverage) channels += "coverage ";
      if (stba) channels += "stba ";
      if (channels.empty()) {
        channels = "MISSED";
        v.wrong += slices[i].size();
        problem("fault " + slice.fault + " not detected by any channel");
      } else {
        channels.pop_back();
      }
      v.detections.push_back({slice.fault, channels});
    }
  }
  v.digest = crve::sha256_hex(all_lines);
  return v;
}

namespace {

// Timing-free report with the cache provenance a replay adds removed, so a
// warm replay compares byte for byte with the run that filled the cache.
std::string strip_cache_provenance(std::string report) {
  for (std::size_t at; (at = report.find(", \"cached\": true")) !=
                       std::string::npos;) {
    report.erase(at, 16);
  }
  // The per-config "cache": {...} block; its closing line repeats the
  // opening line's indentation.
  for (std::size_t at; (at = report.find("\"cache\": {\n")) !=
                       std::string::npos;) {
    const std::size_t line = report.rfind('\n', at) + 1;
    const std::string indent = report.substr(line, at - line);
    const std::size_t close = report.find("\n" + indent + "},\n", at);
    if (close == std::string::npos) break;
    report.erase(line, close + indent.size() + 4 - line);
  }
  return report;
}

// Earliest moment, in seconds since the tracker was created, at which some
// (config, test, seed) pair had its sign-off verdict: its alignment job
// finished, or without alignment both of its view jobs.
double first_verdict(const std::vector<crve::regress::JobRecord>& records,
                     bool aligned) {
  std::map<std::string, std::pair<int, double>> pairs;  // views seen, last
  double first = -1.0;
  for (const auto& r : records) {
    const std::string key =
        r.config + "/" + r.test + "/" + std::to_string(r.seed);
    double done = -1.0;
    if (aligned) {
      if (r.view == "align") done = r.end_ms;
    } else {
      auto& [seen, last] = pairs[key];
      ++seen;
      last = std::max(last, r.end_ms);
      if (seen == 2) done = last;
    }
    if (done >= 0.0 && (first < 0.0 || done < first)) first = done;
  }
  return first / 1e3;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

RepResult run_rep(const Workload& w, const std::string& rep_dir) {
  RepResult out;
  const std::string cache_dir = w.warm         ? w.dir + "/cache"
                                : w.cold_cache ? rep_dir + "/cache"
                                               : std::string();
  // Set-up is short next to the campaign, so it is repeated to give its
  // median enough samples; the campaign runs on the last one.
  Tracer untraced(false);
  Preflight pre;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    pre = preflight(w, cache_dir, untraced);
    out.setup_s.push_back(seconds_since(t0));
  }
  pre.cache.reset();  // the runner opens its own handle

  std::vector<std::string> reports;
  const auto t1 = Clock::now();
  double first = -1.0;
  for (std::size_t i = 0; i < w.slices.size(); ++i) {
    const Slice& slice = w.slices[i];
    RunPlan plan = w.base_plan(slice);
    plan.cache_dir = cache_dir;
    plan.design_health = pre.health[i];
    if (w.to_disk || w.warm) plan.out_dir = rep_dir + "/out/" + slice.name;
    if (w.to_disk) {
      plan.profile_out = plan.out_dir + "/profile.json";
      plan.txn_trace_out = plan.out_dir + "/txn.json";
    }
    crve::regress::ProgressTracker tracker(crve::regress::ProgressOptions{});
    plan.progress = &tracker;
    const double slice_start = seconds_since(t1);
    MatrixResult m = Regression::run_matrix(pre.configs[i], plan);
    // With artifacts on disk run_matrix wrote report.json itself; in
    // memory the batch report is rendered as `crve_regress --json` would.
    if (plan.out_dir.empty()) reports.push_back(m.json());
    const double fv = first_verdict(tracker.records(), w.alignment);
    if (first < 0.0 && fv >= 0.0) first = slice_start + fv;
    out.results.push_back(std::move(m));
  }
  out.campaign_s = seconds_since(t1);
  out.first_verdict_s = first;

  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const MatrixResult& m = out.results[i];
    out.records.push_back(pair_records(w.slices[i].name, m));
    out.report += strip_cache_provenance(m.json(/*with_timing=*/false));
    for (const auto& r : m.results) {
      for (const auto& o : r.outcomes) {
        if (o.cached) continue;
        out.sim_job_ms += o.wall_ms;
        out.sim_cycles += o.result.cycles;
        out.busy_job_ms += o.wall_ms;
        out.job_ms.push_back(o.wall_ms);
      }
      for (const auto& a : r.alignments) {
        if (a.cached) continue;
        out.busy_job_ms += a.wall_ms;
        out.job_ms.push_back(a.wall_ms);
      }
    }
  }
  return out;
}

void fill_cache(const Workload& w) {
  // The same repetition the timed run makes, against the still empty
  // workload cache, so every pair is simulated once and stored.
  const std::string fill_dir = w.dir + "/fill";
  fs::create_directories(w.dir + "/cache");
  RepResult r = run_rep(w, fill_dir);
  const Verdicts v = judge(w, r.records);
  if (v.wrong > 0) {
    throw std::runtime_error("cache fill has wrong verdicts: " +
                             v.problems.front());
  }
  std::ofstream os(w.dir + "/fill_report.txt");
  os << r.report;
  if (!os) throw std::runtime_error("cannot write fill report");
  fs::remove_all(fill_dir);
}

int run_end_to_end(const Workload& w, double seconds) {
  const auto start = Clock::now();
  std::vector<double> setup, campaign, first, ns_per_cycle, busy_share;
  std::vector<double> job_ms;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string digest;
  Verdicts first_verdicts;
  std::vector<std::string> problems;
  const std::string fill_report =
      w.warm ? read_file(w.dir + "/fill_report.txt") : std::string();

  for (int rep = 0; rep < 500; ++rep) {
    if (rep >= 3 && seconds_since(start) >= seconds) break;
    const std::string rep_dir = w.dir + "/rep" + std::to_string(rep);
    settle_disk();
    RepResult r;
    try {
      r = run_rep(w, rep_dir);
    } catch (const std::exception& e) {
      // A campaign that throws is a wrong verdict for every pair in it.
      std::size_t pairs = 0;
      for (const Slice& s : w.slices) {
        pairs += static_cast<std::size_t>(
                     std::distance(fs::directory_iterator(s.config_dir),
                                   fs::directory_iterator())) *
                 w.pairs_per_config();
      }
      attempted += pairs;
      failed += pairs;
      correct = false;
      problems.push_back(std::string("campaign threw: ") + e.what());
      fs::remove_all(rep_dir);
      continue;
    }
    fs::remove_all(rep_dir);
    Verdicts v = judge(w, r.records);
    attempted += v.pairs;
    failed += v.wrong;
    if (v.wrong > 0) correct = false;
    for (const auto& p : v.problems) {
      if (problems.size() < 12) problems.push_back(p);
    }
    if (digest.empty()) {
      digest = v.digest;
      first_verdicts = v;
    } else if (digest != v.digest) {
      correct = false;
      problems.push_back("simulated statistics differ between repetitions");
    }
    if (w.warm && r.report != fill_report) {
      correct = false;
      failed += v.pairs;
      problems.push_back("warm replay report differs from the fill run's");
    }
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    campaign.push_back(r.campaign_s);
    first.push_back(r.first_verdict_s);
    const std::uint64_t cycles = v.rtl_cycles + v.bca_cycles;
    ns_per_cycle.push_back(r.sim_cycles > 0
                               ? r.sim_job_ms * 1e6 / r.sim_cycles
                               : r.campaign_s * 1e9 / cycles);
    busy_share.push_back(r.busy_job_ms /
                         (r.campaign_s * 1e3 * static_cast<double>(kJobs)));
    job_ms.insert(job_ms.end(), r.job_ms.begin(), r.job_ms.end());
  }
  const double rss = peak_rss_mb();
  const Verdicts& v = first_verdicts;
  double min_alignment = v.min_clean_alignment;

  // sparse_functional runs without STBA; the BCA model's accuracy on its
  // traffic comes from one untimed aligned pass over the same inputs, whose
  // simulated facts must equal the functional run's.
  if (!w.alignment && v.pairs > 0) {
    Workload aligned = w;
    aligned.alignment = true;
    const std::string dir = w.dir + "/aligned_oracle";
    try {
      RepResult r = run_rep(aligned, dir);
      const Verdicts av = judge(aligned, r.records);
      attempted += av.pairs;
      failed += av.wrong;
      if (av.wrong > 0) correct = false;
      for (const auto& p : av.problems) problems.push_back(p);
      min_alignment = av.min_clean_alignment;
      for (auto& slice : r.records) {
        for (auto& rec : slice) {
          rec.aligned = false;
          rec.ports.clear();
        }
      }
      if (judge(w, r.records).digest != digest) {
        correct = false;
        problems.push_back("aligned oracle pass simulated different facts");
      }
    } catch (const std::exception& e) {
      correct = false;
      problems.push_back(std::string("aligned oracle pass threw: ") +
                         e.what());
    }
    fs::remove_all(dir);
  }

  const double wrong_share =
      attempted ? static_cast<double>(failed) / attempted : 1.0;
  const double coverage = v.coverage_n ? v.coverage_sum / v.coverage_n : 0.0;
  std::printf("workload %s: %zu slice(s), %zu pairs per repetition, %zu "
              "repetitions, %u workers\n",
              w.name.c_str(), w.slices.size(), v.pairs, campaign.size(),
              kJobs);
  std::printf("  campaign_s          %s\n", describe(campaign, "s").c_str());
  std::printf("  first_verdict_s     %s\n", describe(first, "s").c_str());
  std::printf("  setup_s             %s\n", describe(setup, "s").c_str());
  std::printf("  host_ns_per_cycle   %s%s\n",
              describe(ns_per_cycle, "ns").c_str(),
              w.warm ? " [replay: campaign wall per replayed cycle]" : "");
  std::printf("  peak_rss_mb         %.6g MB\n", rss);
  std::printf("  wrong_verdict_share %.6g (%llu of %llu pairs)\n",
              wrong_share, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  right_verdict_pct   %.6g %%\n", 100.0 * (1.0 - wrong_share));
  std::printf("  min_alignment_pct   %.6g %%%s\n", 100.0 * min_alignment,
              w.alignment ? "" : " [untimed aligned pass]");
  std::printf("  coverage_pct        %.6g %%\n", coverage);
  if (!job_ms.empty()) {
    std::printf("  job wall            %s\n", describe(job_ms, "ms").c_str());
    std::printf("  pool busy share     %.4g (median over repetitions)\n",
                median(busy_share));
  }
  std::printf("determinism: sha256 %s cycles.rtl %llu cycles.bca %llu "
              "evaluations.rtl %llu evaluations.bca %llu capped_cycles %llu\n",
              digest.c_str(), static_cast<unsigned long long>(v.rtl_cycles),
              static_cast<unsigned long long>(v.bca_cycles),
              static_cast<unsigned long long>(v.rtl_evaluations),
              static_cast<unsigned long long>(v.bca_evaluations),
              static_cast<unsigned long long>(v.capped_cycles));
  if (!v.detections.empty()) {
    int found = 0;
    for (const auto& [fault, channels] : v.detections) {
      std::printf("  fault %-24s %s\n", fault.c_str(), channels.c_str());
      found += channels != "MISSED" ? 1 : 0;
    }
    std::printf("  faults detected: %d/%zu\n", found, v.detections.size());
  }
  for (const auto& p : problems) std::printf("PROBLEM: %s\n", p.c_str());

  const double median_campaign = median(campaign);
  std::vector<Metric> metrics = {
      {"campaign_s", median_campaign, "s"},
      {"first_verdict_s", median(first), "s"},
      {"setup_s", median(setup), "s"},
      {"host_ns_per_cycle", median(ns_per_cycle), "ns"},
      {"peak_rss_mb", rss, "MB"},
      {"right_verdict_pct", 100.0 * (1.0 - wrong_share), "%"},
      {"min_alignment_pct", 100.0 * min_alignment, "%"},
      {"coverage_pct", coverage, "%"},
  };
  std::printf("%s\n",
              result_json(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace cbench

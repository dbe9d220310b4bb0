// End-to-end side of the benchmark: one repetition of a workload through
// the runner's public batch entry point (Regression::run_matrix), the
// verdict oracle, and the timed loop that reports the end-to-end metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "regress/runner.h"
#include "workload.h"

namespace cbench {

// The simulated facts of one (config, test, seed) pair, compared exactly
// between repetitions, between the end-to-end run and the serial traced
// runner, and between a warm replay and the run that filled the cache.
struct PairRecord {
  std::string key;  // slice/config/test/seed
  bool rtl_passed = false;
  bool bca_passed = false;
  std::uint64_t rtl_cycles = 0;
  std::uint64_t bca_cycles = 0;
  std::uint64_t rtl_evaluations = 0;
  std::uint64_t bca_evaluations = 0;
  bool rtl_completed = false;
  bool bca_completed = false;
  std::uint64_t rtl_digest = 0;
  std::uint64_t bca_digest = 0;
  double rtl_coverage = 0.0;
  bool aligned = false;
  // Per port: (aligned cycles, total cycles).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ports;

  double min_rate() const;
  bool clean_signoff(double threshold) const;
  std::string line() const;
};

std::vector<PairRecord> pair_records(const std::string& slice,
                                     const crve::regress::MatrixResult& m);

// Verdicts of a workload's pairs against what the workload expects.
struct Verdicts {
  std::size_t pairs = 0;
  std::size_t wrong = 0;
  double min_clean_alignment = 1.0;  // over clean, aligned pairs
  double coverage_sum = 0.0;
  std::size_t coverage_n = 0;
  std::uint64_t rtl_cycles = 0;
  std::uint64_t bca_cycles = 0;
  std::uint64_t rtl_evaluations = 0;
  std::uint64_t bca_evaluations = 0;
  std::uint64_t capped_cycles = 0;
  std::string digest;  // sha256 over every PairRecord line
  // Fault slice -> channels that caught it ("checks", "coverage", "stba").
  std::vector<std::pair<std::string, std::string>> detections;
  std::vector<std::string> problems;
};

// Judges per-slice records: clean pairs must sign off on both views with
// equal coverage digests and >=99% alignment; in a fault slice the RTL view
// must still pass and at least one pair must miss sign-off, else every pair
// of the slice counts as a wrong verdict.
Verdicts judge(const Workload& w,
               const std::vector<std::vector<PairRecord>>& slices);

struct RepResult {
  std::vector<double> setup_s;  // one sample per preflight
  double campaign_s = 0.0;
  double first_verdict_s = 0.0;
  double sim_job_ms = 0.0;  // summed wall of freshly simulated view jobs
  std::uint64_t sim_cycles = 0;
  double busy_job_ms = 0.0;  // summed wall of every fresh job, align too
  std::vector<double> job_ms;
  std::vector<crve::regress::MatrixResult> results;  // per slice
  std::vector<std::vector<PairRecord>> records;      // per slice
  std::string report;  // timing-free batch reports, cache provenance cut
};

// One repetition: preflight (setup_s), then every slice through run_matrix
// (campaign_s). Creates what it writes under rep_dir.
RepResult run_rep(const Workload& w, const std::string& rep_dir);

// prepare-time fill of <dir>/cache for warm_rerun; writes fill_report.txt.
void fill_cache(const Workload& w);

// The trace-0 run: repeats run_rep for `seconds`, checks every verdict and
// prints the end-to-end metrics; returns the process exit code.
int run_end_to_end(const Workload& w, double seconds);

}  // namespace cbench

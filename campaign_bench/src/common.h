// Shared pieces of the campaign benchmark: clocks, order statistics, the
// span recorder of the traced run, the campaign preflight and the result
// line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "regress/runner.h"
#include "workload.h"

namespace cbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
// The median plus the highest whole percentile with at least ten samples
// beyond it, when there is one, and the sample count: the form every timing
// is printed in.
std::string describe(const std::vector<double>& v, const char* unit);

double peak_rss_mb();

// Flushes the dirty pages earlier repetitions left behind, so that their
// writeback does not land inside the next timed repetition.
void settle_disk();

// Spans recorded around the calls into each layer: name, start, end and
// the enclosing span. Kept in memory; written out when the run ends. A
// disabled recorder takes no clock readings at all, so the same serial
// runner runs with and without tracing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }
  // Self time per span name in ms: each span's duration minus the part of
  // it its children cover.
  std::map<std::string, double> self_ms() const;
  std::string json() const;

 private:
  bool enabled_;
  int open_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// What the runner's CLI does before a campaign: config lint, config load,
// design lint and campaign lint for every slice, then the cache provenance
// lint and the cache open when the workload has a cache. Throws when a
// gate refuses, exactly where `crve_regress` would exit 2.
struct Preflight {
  std::vector<std::vector<crve::stbus::NodeConfig>> configs;  // per slice
  std::vector<std::vector<crve::regress::DesignHealth>> health;
  std::unique_ptr<crve::cache::Cache> cache;
};
Preflight preflight(const Workload& w, const std::string& cache_dir,
                    Tracer& tracer);

// Environment-side ports STBA aligns for one (config, test), as the runner
// derives them.
std::vector<std::string> alignment_ports(crve::stbus::NodeConfig cfg,
                                         const crve::verif::TestSpec& spec);

// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace cbench

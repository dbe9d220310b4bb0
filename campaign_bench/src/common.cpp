#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/build_info.h"
#include "lint/design_lint.h"
#include "lint/lint.h"
#include "regress/config_file.h"

namespace cbench {

namespace {

// The highest whole percentile with at least ten samples beyond it, or -1
// when there are too few samples for any.
int tail_percentile(std::size_t n) {
  if (n < 11) return -1;
  // p such that at least ten samples rank above the p-th percentile.
  return static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                     static_cast<double>(n)));
}

double percentile(std::vector<double> v, int pct) {
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string describe(const std::vector<double>& v, const char* unit) {
  char buf[160];
  const int p = tail_percentile(v.size());
  if (p < 0) {
    std::snprintf(buf, sizeof buf, "%.6g %s median (n=%zu, no percentile "
                  "with >=10 samples beyond it)", median(v), unit, v.size());
  } else {
    std::snprintf(buf, sizeof buf, "%.6g %s median, p%d %.6g %s (n=%zu)",
                  median(v), unit, p, percentile(v, p), unit, v.size());
  }
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void settle_disk() { ::sync(); }

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t) {
  if (!t_.enabled_) return;
  Span s;
  s.name = name;
  s.parent = t_.open_;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t_.epoch_)
                   .count();
  index_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(std::move(s));
  t_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = t_.spans_[static_cast<std::size_t>(index_)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - t_.epoch_)
                 .count();
  t_.open_ = s.parent;
}

std::map<std::string, double> Tracer::self_ms() const {
  // Spans nest strictly (one thread, RAII scopes), so a child's interval
  // lies inside its parent's and siblings never overlap.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e6;
  }
  return out;
}

std::string Tracer::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += (i ? ",\n" : "\n");
    out += "{\"name\":\"" + s.name + "\",\"start_ns\":" +
           std::to_string(s.start_ns) + ",\"end_ns\":" +
           std::to_string(s.end_ns) + ",\"parent\":" +
           std::to_string(s.parent) + "}";
  }
  return out + "\n]\n";
}

Preflight preflight(const Workload& w, const std::string& cache_dir,
                    Tracer& tracer) {
  namespace lint = crve::lint;
  Preflight p;
  const auto tests = w.tests();
  for (const Slice& slice : w.slices) {
    {
      Tracer::Scope s(tracer, "lint.config");
      if (lint::lint_config_dir(slice.config_dir).exit_code() >= 2) {
        throw std::runtime_error("config lint refused " + slice.config_dir);
      }
    }
    {
      Tracer::Scope s(tracer, "regress.config_load");
      p.configs.push_back(crve::regress::configs_from_dir(slice.config_dir));
    }
    std::vector<crve::regress::DesignHealth> health;
    {
      Tracer::Scope s(tracer, "lint.design");
      const auto dres = lint::lint_design_dir(slice.config_dir);
      if (dres.report.exit_code() >= 2) {
        throw std::runtime_error("design lint refused " + slice.config_dir);
      }
      for (const auto& d : dres.summaries) {
        crve::regress::DesignHealth h;
        h.config = d.config;
        h.view = d.view;
        h.signals = d.signals;
        h.comb_processes = d.comb_processes;
        h.clocked_processes = d.clocked_processes;
        h.ranks = d.ranks;
        h.max_fanout = d.max_fanout;
        h.max_fanout_signal = d.max_fanout_signal;
        h.errors = d.errors;
        h.warnings = d.warnings;
        h.notes = d.notes;
        health.push_back(h);
      }
    }
    p.health.push_back(std::move(health));
    {
      Tracer::Scope s(tracer, "lint.config");
      lint::CampaignSpec spec;
      for (const auto& t : tests) spec.tests.push_back(t.name);
      spec.seeds = w.seeds;
      spec.alignment_threshold = 0.99;
      if (lint::lint_campaign(spec).exit_code() >= 2) {
        throw std::runtime_error("campaign lint refused " + w.name);
      }
    }
  }
  if (!cache_dir.empty()) {
    {
      Tracer::Scope s(tracer, "lint.config");
      lint::lint_cache_provenance(cache_dir, crve::build_info().sanitize);
    }
    Tracer::Scope s(tracer, "cache.open");
    crve::cache::CacheOptions copts;
    copts.dir = cache_dir;
    copts.git_hash = crve::build_info().git_hash;
    copts.sanitize = crve::build_info().sanitize;
    p.cache = std::make_unique<crve::cache::Cache>(copts);
  }
  return p;
}

std::vector<std::string> alignment_ports(crve::stbus::NodeConfig cfg,
                                         const crve::verif::TestSpec& spec) {
  if (spec.adjust) spec.adjust(cfg);
  cfg.validate_and_normalize();
  std::vector<std::string> ports;
  for (int i = 0; i < cfg.n_initiators; ++i) {
    ports.push_back(crve::verif::Testbench::initiator_port_name(i));
  }
  for (int t = 0; t < cfg.n_targets; ++t) {
    ports.push_back(crve::verif::Testbench::target_port_name(t));
  }
  return ports;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           format_double(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace cbench

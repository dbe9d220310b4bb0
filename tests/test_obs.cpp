// Observability layer: metrics registry, phase-span tracing, and their
// integration with the regression engine.
//
// The load-bearing guarantees under test:
//   * disabled collection is a no-op (no values recorded, handles inert);
//   * merged metric values are independent of the worker count — the
//     deterministic (kStable) JSON view is byte-identical for jobs=1 and
//     jobs=4 runs of the same campaign;
//   * kTiming metrics never leak into the deterministic view;
//   * trace sessions produce valid Chrome trace-event JSON made of
//     complete ("ph":"X") events covering the campaign phases.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regress/runner.h"
#include "metrics_guard.h"
#include "verif/tests.h"

namespace crve {
namespace {

using test::MetricsGuard;

// Name-based lookups: descriptors registered by other tests persist for the
// process lifetime (reset() only zeroes values), so positional or
// size-based assertions on the snapshot would be order-dependent.
std::uint64_t counter_value(const obs::Registry::Snapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return 0;
}

std::uint64_t gauge_value(const obs::Registry::Snapshot& snap,
                          const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "gauge " << name << " not in snapshot";
  return 0;
}

obs::HistogramValue hist_value(const obs::Registry::Snapshot& snap,
                               const std::string& name) {
  for (const auto& [n, v] : snap.histograms) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "histogram " << name << " not in snapshot";
  return {};
}

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(Metrics, DisabledCollectionRecordsNothing) {
  obs::registry().reset();
  ASSERT_FALSE(obs::metrics_enabled());
  obs::counter("obs_test.disabled").add(42);
  obs::histogram("obs_test.disabled_h").observe(7);
  const auto snap = obs::registry().snapshot();
  EXPECT_EQ(counter_value(snap, "obs_test.disabled"), 0u);
}

TEST(Metrics, CounterAccumulatesAndResets) {
  MetricsGuard guard;
  auto c = obs::counter("obs_test.c");
  c.add(3);
  c.inc();
  EXPECT_EQ(counter_value(obs::registry().snapshot(), "obs_test.c"), 4u);
  obs::registry().reset();
  EXPECT_EQ(counter_value(obs::registry().snapshot(), "obs_test.c"), 0u);
}

TEST(Metrics, GaugeKeepsRunningMax) {
  MetricsGuard guard;
  auto g = obs::gauge("obs_test.g");
  g.observe_max(5);
  g.observe_max(17);
  g.observe_max(9);
  EXPECT_EQ(gauge_value(obs::registry().snapshot(), "obs_test.g"), 17u);
}

TEST(Metrics, HistogramLog2BucketBoundaries) {
  MetricsGuard guard;
  auto h = obs::histogram("obs_test.h");
  // Bucket 0 holds value 0; bucket k>=1 holds [2^(k-1), 2^k).
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1: [1,2)
  h.observe(2);   // bucket 2: [2,4)
  h.observe(3);   // bucket 2
  h.observe(4);   // bucket 3: [4,8)
  h.observe(7);   // bucket 3
  h.observe(8);   // bucket 4: [8,16)
  const obs::HistogramValue v =
      hist_value(obs::registry().snapshot(), "obs_test.h");
  EXPECT_EQ(v.count, 7u);
  EXPECT_EQ(v.sum, 0u + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(v.buckets[0], 1u);
  EXPECT_EQ(v.buckets[1], 1u);
  EXPECT_EQ(v.buckets[2], 2u);
  EXPECT_EQ(v.buckets[3], 2u);
  EXPECT_EQ(v.buckets[4], 1u);
}

TEST(Metrics, HandlesAreStableAcrossReRegistration) {
  MetricsGuard guard;
  obs::counter("obs_test.same").inc();
  obs::counter("obs_test.same").inc();  // second lookup, same slot
  EXPECT_EQ(counter_value(obs::registry().snapshot(), "obs_test.same"), 2u);
}

TEST(Metrics, CrossThreadUpdatesMergeToExactSum) {
  MetricsGuard guard;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      auto c = obs::counter("obs_test.mt");
      auto h = obs::histogram("obs_test.mt_h");
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(i % 16));
      }
    });
  }
  for (auto& t : ts) t.join();
  const auto snap = obs::registry().snapshot();
  EXPECT_EQ(counter_value(snap, "obs_test.mt"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist_value(snap, "obs_test.mt_h").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, TimingMetricsExcludedFromStableView) {
  MetricsGuard guard;
  obs::counter("obs_test.stable", obs::MetricClass::kStable).inc();
  obs::counter("obs_test.timing", obs::MetricClass::kTiming).inc();
  const std::string stable = obs::registry().json(/*include_timing=*/false);
  const std::string full = obs::registry().json(/*include_timing=*/true);
  EXPECT_EQ(stable.find("obs_test.timing"), std::string::npos);
  EXPECT_NE(stable.find("obs_test.stable"), std::string::npos);
  EXPECT_NE(full.find("obs_test.timing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Minimal JSON validator (syntax check + object/array walk), enough to
// assert the emitted documents parse without an external dependency.
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Metrics, JsonOutputParses) {
  MetricsGuard guard;
  obs::counter("obs_test.json\"quoted").add(1);
  obs::gauge("obs_test.json_g").observe_max(3);
  obs::histogram("obs_test.json_h").observe(12345);
  const std::string j = obs::registry().json();
  EXPECT_TRUE(JsonParser(j).parse()) << j;
  const std::string j2 = obs::registry().json(false, "    ");
  EXPECT_TRUE(JsonParser(j2).parse()) << j2;
}

// ---------------------------------------------------------------------------
// Phase-span tracing
// ---------------------------------------------------------------------------

// Counts occurrences of `needle` in `hay`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Trace, SessionProducesCompleteEventsOnly) {
  obs::trace_begin();
  {
    CRVE_SPAN("outer");
    CRVE_SPAN("inner", std::string("detail text"));
  }
  // Spans closed from pool workers land in per-thread buffers.
  ThreadPool pool(3);
  pool.parallel_for(6, [](std::size_t) { CRVE_SPAN("worker_phase"); });
  std::ostringstream os;
  obs::trace_end(os);
  const std::string j = os.str();
  EXPECT_TRUE(JsonParser(j).parse()) << j;
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  // Complete events only: every event carries ph=X and a duration.
  const std::size_t events = count_of(j, "\"ph\": \"X\"");
  EXPECT_EQ(events, count_of(j, "\"dur\":"));
  EXPECT_EQ(events, 2u + 6u);
  EXPECT_NE(j.find("\"outer\""), std::string::npos);
  EXPECT_NE(j.find("\"inner\""), std::string::npos);
  EXPECT_NE(j.find("detail text"), std::string::npos);
}

TEST(Trace, DisabledSessionRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  { CRVE_SPAN("ignored"); }
  std::ostringstream os;
  obs::trace_end(os);
  const std::string j = os.str();
  EXPECT_TRUE(JsonParser(j).parse()) << j;
  EXPECT_EQ(j.find("ignored"), std::string::npos);
}

TEST(Trace, SpanOutlivingSessionIsDropped) {
  obs::trace_begin();
  auto span = std::make_unique<obs::SpanGuard>("late_span");
  std::ostringstream os;
  obs::trace_end(os);  // session closes with the span still open
  span.reset();        // closes after the session: must not be misfiled
  obs::trace_begin();
  std::ostringstream os2;
  obs::trace_end(os2);
  EXPECT_EQ(os2.str().find("late_span"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Regression-engine integration
// ---------------------------------------------------------------------------

stbus::NodeConfig obs_cfg() {
  stbus::NodeConfig cfg;
  cfg.name = "node_obs";
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.type = stbus::ProtocolType::kType2;
  cfg.arch = stbus::Architecture::kFullCrossbar;
  cfg.arb = stbus::ArbPolicy::kLru;
  return cfg;
}

regress::RunPlan obs_plan(unsigned jobs) {
  regress::RunPlan plan;
  plan.cfg = obs_cfg();
  plan.tests = {verif::t02_random_all_opcodes(), verif::t05_chunked_traffic()};
  plan.seeds = {1, 2};
  plan.n_transactions = 30;
  plan.jobs = jobs;
  return plan;
}

TEST(ObsRegression, StableMetricsIdenticalForAnyWorkerCount) {
  MetricsGuard guard;
  const auto serial = regress::Regression::run(obs_plan(1));
  const std::string json1 = obs::registry().json(/*include_timing=*/false);

  obs::registry().reset();
  const auto parallel = regress::Regression::run(obs_plan(4));
  const std::string json4 = obs::registry().json(/*include_timing=*/false);

  ASSERT_TRUE(serial.signed_off);
  ASSERT_TRUE(parallel.signed_off);
  // Byte-identical merged counters and histograms: the instrumentation is
  // a pure function of the work done, never of the scheduling.
  EXPECT_EQ(json1, json4);
  // And the embedded report section carries exactly that deterministic view.
  EXPECT_EQ(serial.metrics_json, parallel.metrics_json);
  EXPECT_EQ(serial.metrics_json, json4);
  EXPECT_TRUE(JsonParser(json1).parse()) << json1;

  // Spot-check campaign-level counters against ground truth.
  const auto snap = obs::registry().snapshot();
  EXPECT_EQ(counter_value(snap, "regress.jobs"), parallel.outcomes.size());
  EXPECT_EQ(counter_value(snap, "regress.alignments"),
            parallel.alignments.size());
  EXPECT_EQ(counter_value(snap, "regress.failures"), 0u);
  EXPECT_EQ(counter_value(snap, "sim.runs"), parallel.outcomes.size());
  std::uint64_t cycles = 0;
  for (const auto& o : parallel.outcomes) cycles += o.result.cycles;
  EXPECT_EQ(counter_value(snap, "sim.cycles"), cycles);
  // Every pair records its RTL view when alignment runs; its BCA view
  // replays against that recording and, proved, records nothing.
  EXPECT_EQ(counter_value(snap, "regress.replay_proved"),
            parallel.alignments.size());
  EXPECT_EQ(counter_value(snap, "vcd.recordings"), parallel.alignments.size());
  EXPECT_GT(counter_value(snap, "vcd.recorded_changes"), 0u);
  EXPECT_GT(counter_value(snap, "stba.ports_compared"), 0u);
  EXPECT_GT(counter_value(snap, "verif.request_packets"), 0u);
}

// An on-disk campaign writes each view run's wave once, from its recording
// (a proved BCA replay's from the RTL one): vcd.dumps counts the view runs
// and vcd.bytes_flushed the bytes of their wave files, while
// vcd.recordings counts only the recordings alignment takes, so a
// recording that only feeds a wave file publishes nothing, and a pair whose
// BCA replay is proved takes one.
TEST(ObsRegression, OnDiskWavesCountedOncePerViewRun) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "crve_obs_wave_test";
  for (const bool align : {true, false}) {
    SCOPED_TRACE(align ? "alignment on" : "alignment off");
    fs::remove_all(dir);
    MetricsGuard guard;
    regress::RunPlan plan = obs_plan(2);
    plan.out_dir = dir.string();
    plan.run_alignment = align;
    const auto res = regress::Regression::run(plan);
    ASSERT_TRUE(res.rtl_passed && res.bca_passed) << res.summary();

    std::uint64_t wave_bytes = 0;
    std::size_t waves = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      const auto ends_with = [&](const std::string& tail) {
        return name.size() > tail.size() &&
               name.compare(name.size() - tail.size(), tail.size(), tail) == 0;
      };
      if (name.rfind("excerpt_", 0) == 0) continue;
      if (ends_with("_rtl.vcd") || ends_with("_bca.vcd")) {
        ++waves;
        wave_bytes += fs::file_size(entry.path());
      }
    }
    const auto snap = obs::registry().snapshot();
    EXPECT_EQ(waves, res.outcomes.size());
    EXPECT_EQ(counter_value(snap, "vcd.dumps"), res.outcomes.size());
    EXPECT_EQ(counter_value(snap, "vcd.bytes_flushed"), wave_bytes);
    EXPECT_EQ(counter_value(snap, "vcd.recordings"),
              align ? res.alignments.size() : 0u);
  }
  fs::remove_all(dir);
}

TEST(ObsRegression, ReportOmitsMetricsSectionWhenDisabled) {
  ASSERT_FALSE(obs::metrics_enabled());
  const auto res = regress::Regression::run(obs_plan(2));
  EXPECT_TRUE(res.metrics_json.empty());
  EXPECT_EQ(res.json().find("\"metrics\""), std::string::npos);
}

TEST(ObsRegression, ReportEmbedsParseableMetricsSection) {
  MetricsGuard guard;
  const auto res = regress::Regression::run(obs_plan(2));
  ASSERT_FALSE(res.metrics_json.empty());
  const std::string j = res.json();
  EXPECT_NE(j.find("\"metrics\""), std::string::npos);
  EXPECT_TRUE(JsonParser(j).parse()) << j;
  // Timing metrics (pool queue waits) must not reach the report.
  EXPECT_EQ(j.find("pool.queue_wait_ns"), std::string::npos);
}

TEST(ObsRegression, FailingJobDumpsFlightRecorderToArtifacts) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "crve_obs_flight_test";
  fs::remove_all(dir);

  FlightRecorder fr(32);
  set_flight_recorder(&fr, LogLevel::kInfo);
  regress::RunPlan plan;
  plan.cfg = obs_cfg();
  plan.tests = {verif::t02_random_all_opcodes()};
  plan.seeds = {5};
  plan.n_transactions = 80;
  plan.faults.byte_enable_dropped = true;  // the BCA view fails its checks
  plan.out_dir = dir.string();
  const auto res = regress::Regression::run(plan);
  set_flight_recorder(nullptr);

  ASSERT_TRUE(res.rtl_passed);
  ASSERT_FALSE(res.bca_passed);
  const fs::path dump = dir / "flight_t02_random_all_opcodes_s5_bca.log";
  ASSERT_TRUE(fs::exists(dump));
  // The captured context includes the per-job progress lines the logger
  // records below the console threshold.
  std::ifstream is(dump);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_NE(ss.str().find("[info ]"), std::string::npos);
  // The passing RTL job must not leave a dump behind.
  EXPECT_FALSE(fs::exists(dir / "flight_t02_random_all_opcodes_s5_rtl.log"));
  fs::remove_all(dir);
}

TEST(ObsRegression, CampaignTraceCoversJobsAndPhases) {
  obs::trace_begin();
  const auto res = regress::Regression::run(obs_plan(3));
  std::ostringstream os;
  obs::trace_end(os);
  ASSERT_TRUE(res.signed_off);
  const std::string j = os.str();
  EXPECT_TRUE(JsonParser(j).parse()) << j;
  // One top-level campaign span, one job span per (test, seed, view) unit,
  // the RTL view's with build/sim sub-phases and the BCA view's with its
  // replay, plus one align span per pair.
  EXPECT_EQ(count_of(j, "\"name\": \"campaign\""), 1u);
  EXPECT_EQ(count_of(j, "\"name\": \"job\""), res.outcomes.size());
  EXPECT_EQ(count_of(j, "\"name\": \"sim\""), res.alignments.size());
  EXPECT_EQ(count_of(j, "\"name\": \"build\""), res.alignments.size());
  EXPECT_EQ(count_of(j, "\"name\": \"replay\""), res.alignments.size());
  EXPECT_EQ(count_of(j, "\"name\": \"align\""), res.alignments.size());
  EXPECT_EQ(count_of(j, "\"name\": \"reduce\""), 1u);
  // Job identity rides in the args.detail payload.
  EXPECT_NE(j.find("node_obs:t02_random_all_opcodes:s1:rtl"),
            std::string::npos);
}

}  // namespace
}  // namespace crve

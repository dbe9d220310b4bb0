// Divergence triage: the interval/window accounting must agree with a
// naive per-cycle reference scan, correlate divergences with the in-flight
// transaction, survive artifact bounds with exact totals, and the VCD
// excerpts must round-trip through the parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/bits.h"
#include "stba/analyzer.h"
#include "stba/triage.h"
#include "vcd/excerpt.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using stba::Analyzer;
using stba::Triage;
using stba::TriageReport;

const char* kFieldNames[17] = {"req",   "gnt",   "opc",   "add",   "data",
                               "be",    "eop",   "lck",   "src",   "tid",
                               "r_req", "r_gnt", "r_opc", "r_data", "r_eop",
                               "r_src", "r_tid"};
const int kFieldWidths[17] = {1, 1, 6, 32, 32, 4, 1, 1, 6,
                              8, 1, 1, 2, 32, 1, 6, 8};

// One scripted write: (time, field index, value).
using Write = std::tuple<std::uint64_t, int, std::uint64_t>;

// Builds a single-port dump ("tb.p0", the 17 STBus fields) whose change
// stream is exactly the scripted writes, with a final time marker pinning
// the dump extent to `cycles - 1`.
std::string script_dump(std::uint64_t cycles, const std::vector<Write>& writes) {
  std::ostringstream os;
  os << "$timescale 1ns $end\n$scope module tb $end\n"
     << "$scope module p0 $end\n";
  for (int i = 0; i < 17; ++i) {
    os << "$var wire " << kFieldWidths[i] << " " << static_cast<char>('!' + i)
       << " " << kFieldNames[i] << " $end\n";
  }
  os << "$upscope $end\n$upscope $end\n$enddefinitions $end\n";
  std::uint64_t t = ~std::uint64_t{0};
  for (const auto& [time, field, value] : writes) {
    if (time != t) {
      os << "#" << time << "\n";
      t = time;
    }
    const char id = static_cast<char>('!' + field);
    if (kFieldWidths[field] == 1) {
      os << (value ? "1" : "0") << id << "\n";
    } else {
      os << "b" << Bits(kFieldWidths[field], value).to_bin_string() << " "
         << id << "\n";
    }
  }
  if (cycles > 0 && (t == ~std::uint64_t{0} || t < cycles - 1)) {
    os << "#" << (cycles - 1) << "\n";
  }
  return os.str();
}

vcd::Trace parse(const std::string& s) {
  std::istringstream is(s);
  return vcd::Trace::parse(is);
}

// Naive per-cycle reference for one port: walks every cycle and every field
// through Trace::value_at and rebuilds intervals/windows by coalescing
// consecutive diverged cycles. Slow, obviously correct.
struct Reference {
  std::uint64_t total = 0;
  std::uint64_t aligned = 0;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      sig_intervals;  // per field, half-open
  std::vector<std::uint64_t> sig_cycles;  // per field, total diverged cycles
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
};

Reference per_cycle_reference(const vcd::Trace& a, const vcd::Trace& b,
                              const std::string& port) {
  const std::vector<int> ia = Analyzer::resolve_port_fields(a, port);
  const std::vector<int> ib = Analyzer::resolve_port_fields(b, port);
  Reference ref;
  ref.total = std::max(a.max_time(), b.max_time()) + 1;
  ref.sig_intervals.resize(ia.size());
  ref.sig_cycles.assign(ia.size(), 0);
  for (std::uint64_t c = 0; c < ref.total; ++c) {
    bool any = false;
    for (std::size_t f = 0; f < ia.size(); ++f) {
      if (a.value_at(ia[f], c) != b.value_at(ib[f], c)) {
        any = true;
        ++ref.sig_cycles[f];
        auto& iv = ref.sig_intervals[f];
        if (!iv.empty() && iv.back().second == c) {
          iv.back().second = c + 1;
        } else {
          iv.push_back({c, c + 1});
        }
      }
    }
    if (any) {
      if (!ref.windows.empty() && ref.windows.back().second == c) {
        ref.windows.back().second = c + 1;
      } else {
        ref.windows.push_back({c, c + 1});
      }
    } else {
      ++ref.aligned;
    }
  }
  return ref;
}

TEST(Triage, AlignedDumpsProduceNoWindows) {
  const std::string d = script_dump(
      10, {{1, 0, 1}, {1, 1, 1}, {1, 3, 0x40}, {2, 0, 0}, {2, 1, 0}});
  const auto rep = Triage::analyze(parse(d), parse(d), {"tb.p0"});
  ASSERT_EQ(rep.ports.size(), 1u);
  EXPECT_FALSE(rep.any_diverged());
  EXPECT_EQ(rep.first_divergence, TriageReport::kNone);
  EXPECT_TRUE(rep.first_port.empty());
  const auto& p = rep.ports[0];
  EXPECT_EQ(p.total_cycles, 10u);
  EXPECT_EQ(p.aligned_cycles, 10u);
  EXPECT_EQ(p.window_count, 0u);
  EXPECT_TRUE(p.windows.empty());
  EXPECT_TRUE(p.signals.empty());
  EXPECT_DOUBLE_EQ(p.rate(), 1.0);
}

// The load-bearing equivalence: the change-driven single-pass merge must
// reproduce the naive per-cycle scan exactly — intervals, windows, counts —
// on an irregular pseudorandom divergence pattern.
TEST(Triage, MatchesPerCycleReference) {
  constexpr std::uint64_t kCycles = 400;
  std::uint64_t lcg = 12345;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  std::vector<Write> wa, wb;
  for (std::uint64_t t = 0; t < kCycles; t += 1 + next() % 5) {
    const int f = static_cast<int>(next() % 17);
    const std::uint64_t v = next() & ((1ull << kFieldWidths[f]) - 1);
    wa.push_back({t, f, v});
    // ~60% of writes mirrored into B; the rest diverge until B's next
    // write to the same field (or forever).
    if (next() % 10 < 6) {
      wb.push_back({t, f, v});
    } else if (next() % 2) {
      wb.push_back({t, f, v ^ 1});
    }
  }
  const auto a = parse(script_dump(kCycles, wa));
  const auto b = parse(script_dump(kCycles, wb));
  const Reference ref = per_cycle_reference(a, b, "tb.p0");
  const auto rep = Triage::analyze(a, b, {"tb.p0"});
  ASSERT_EQ(rep.ports.size(), 1u);
  const auto& p = rep.ports[0];

  EXPECT_EQ(p.total_cycles, ref.total);
  EXPECT_EQ(p.aligned_cycles, ref.aligned);
  EXPECT_EQ(p.diverged_cycles, ref.total - ref.aligned);

  // Windows: same boundaries, same count (pattern stays under the cap).
  ASSERT_LE(ref.windows.size(), Triage::kMaxWindows);
  ASSERT_EQ(p.window_count, ref.windows.size());
  ASSERT_EQ(p.windows.size(), ref.windows.size());
  for (std::size_t i = 0; i < ref.windows.size(); ++i) {
    EXPECT_EQ(p.windows[i].begin, ref.windows[i].first) << i;
    EXPECT_EQ(p.windows[i].end, ref.windows[i].second) << i;
  }

  // Per-signal interval lists, against the reference field by field.
  std::size_t n_diverged_fields = 0;
  for (std::size_t f = 0; f < 17; ++f) {
    if (ref.sig_cycles[f] == 0) continue;
    ++n_diverged_fields;
    const std::string name = std::string("tb.p0.") + kFieldNames[f];
    const stba::SignalDivergence* sd = nullptr;
    for (const auto& s : p.signals) {
      if (s.signal == name) sd = &s;
    }
    ASSERT_NE(sd, nullptr) << name;
    EXPECT_EQ(sd->diverged_cycles, ref.sig_cycles[f]) << name;
    EXPECT_EQ(sd->interval_count, ref.sig_intervals[f].size()) << name;
    ASSERT_EQ(sd->intervals.size(), ref.sig_intervals[f].size()) << name;
    for (std::size_t i = 0; i < sd->intervals.size(); ++i) {
      EXPECT_EQ(sd->intervals[i].begin, ref.sig_intervals[f][i].first);
      EXPECT_EQ(sd->intervals[i].end, ref.sig_intervals[f][i].second);
    }
  }
  EXPECT_EQ(p.signals.size(), n_diverged_fields);
  ASSERT_FALSE(ref.windows.empty());
  EXPECT_EQ(rep.first_divergence, ref.windows.front().first);
  EXPECT_EQ(rep.first_port, "tb.p0");
}

// Cycle accounting must agree with Analyzer::compare on the same inputs.
TEST(Triage, AgreesWithAnalyzerAccounting) {
  const auto a = parse(script_dump(
      50, {{3, 0, 1}, {3, 1, 1}, {5, 0, 0}, {5, 1, 0}, {20, 4, 0xbeef}}));
  const auto b = parse(script_dump(
      50, {{3, 0, 1}, {4, 1, 1}, {6, 0, 0}, {6, 1, 0}, {20, 4, 0xdead}}));
  const auto align = Analyzer::compare(a, b, {"tb.p0"});
  const auto triage = Triage::analyze(a, b, {"tb.p0"});
  ASSERT_EQ(triage.ports.size(), 1u);
  EXPECT_EQ(triage.ports[0].total_cycles, align.ports[0].total_cycles);
  EXPECT_EQ(triage.ports[0].aligned_cycles, align.ports[0].aligned_cycles);
  EXPECT_EQ(triage.first_divergence, align.ports[0].first_divergence);
  EXPECT_DOUBLE_EQ(triage.ports[0].rate(), align.ports[0].rate());
}

TEST(Triage, DivergenceAtCycleZero) {
  const auto a = parse(script_dump(4, {{0, 0, 1}, {1, 0, 0}}));
  const auto b = parse(script_dump(4, {}));
  const auto rep = Triage::analyze(a, b, {"tb.p0"});
  EXPECT_TRUE(rep.any_diverged());
  EXPECT_EQ(rep.first_divergence, 0u);
  EXPECT_EQ(rep.first_port, "tb.p0");
  const auto& p = rep.ports[0];
  ASSERT_EQ(p.windows.size(), 1u);
  EXPECT_EQ(p.windows[0].begin, 0u);
  EXPECT_EQ(p.windows[0].end, 1u);
  ASSERT_EQ(p.windows[0].signals.size(), 1u);
  EXPECT_EQ(p.windows[0].signals[0], "tb.p0.req");
}

// Back-to-back diverged cycles carried by different signals are still one
// maximal window; the window's signal list is the set at its first cycle.
TEST(Triage, ConsecutiveDivergedCyclesFormOneWindow) {
  // A diverges on req at cycles 2-3 and on gnt at cycles 4-5.
  const auto a = parse(
      script_dump(10, {{2, 0, 1}, {4, 0, 0}, {4, 1, 1}, {6, 1, 0}}));
  const auto b = parse(script_dump(10, {}));
  const auto rep = Triage::analyze(a, b, {"tb.p0"});
  const auto& p = rep.ports[0];
  ASSERT_EQ(p.window_count, 1u);
  EXPECT_EQ(p.windows[0].begin, 2u);
  EXPECT_EQ(p.windows[0].end, 6u);
  ASSERT_EQ(p.windows[0].signals.size(), 1u);
  EXPECT_EQ(p.windows[0].signals[0], "tb.p0.req");
  ASSERT_EQ(p.signals.size(), 2u);
  // port_fields() order: req before gnt.
  EXPECT_EQ(p.signals[0].signal, "tb.p0.req");
  EXPECT_EQ(p.signals[1].signal, "tb.p0.gnt");
  EXPECT_EQ(p.signals[0].diverged_cycles, 2u);
  EXPECT_EQ(p.signals[1].diverged_cycles, 2u);
}

// More intervals than the artifact bound: the list is capped but the
// totals stay exact.
TEST(Triage, IntervalCapRetainsExactTotals) {
  // req toggles 1 at even cycles and 0 at odd cycles in A only: one
  // single-cycle interval every 2 cycles.
  std::vector<Write> wa;
  constexpr std::uint64_t kCycles = 400;  // 200 intervals > kMaxIntervals
  for (std::uint64_t t = 0; t < kCycles; ++t) {
    wa.push_back({t, 0, t % 2 == 0 ? 1ull : 0ull});
  }
  const auto a = parse(script_dump(kCycles, wa));
  const auto b = parse(script_dump(kCycles, {}));
  const auto rep = Triage::analyze(a, b, {"tb.p0"});
  const auto& p = rep.ports[0];
  ASSERT_EQ(p.signals.size(), 1u);
  const auto& sd = p.signals[0];
  EXPECT_EQ(sd.signal, "tb.p0.req");
  EXPECT_EQ(sd.interval_count, kCycles / 2);
  EXPECT_EQ(sd.diverged_cycles, kCycles / 2);
  ASSERT_EQ(sd.intervals.size(), Triage::kMaxIntervals);
  // The listed prefix is the real prefix.
  for (std::size_t i = 0; i < sd.intervals.size(); ++i) {
    EXPECT_EQ(sd.intervals[i].begin, 2 * i);
    EXPECT_EQ(sd.intervals[i].end, 2 * i + 1);
  }
  // Windows hit the same bound with the same exact totals.
  EXPECT_EQ(p.window_count, kCycles / 2);
  EXPECT_EQ(p.windows.size(), Triage::kMaxWindows);
  EXPECT_EQ(p.diverged_cycles, kCycles / 2);
  EXPECT_EQ(p.aligned_cycles, kCycles / 2);
}

// A divergence window must name the transaction in flight on both views:
// the most recent granted cell at or before the window opens.
TEST(Triage, InFlightTransactionCorrelated) {
  // Both views grant an ST8 (opcode 10) to add=0x40, src=2, tid=3 at
  // cycle 2; the views then split on `data` at cycle 5.
  std::vector<Write> base = {{2, 0, 1},    {2, 1, 1},  {2, 2, 10},
                             {2, 3, 0x40}, {2, 6, 1},  {2, 8, 2},
                             {2, 9, 3},    {3, 0, 0},  {3, 1, 0}};
  std::vector<Write> wa = base;
  wa.push_back({5, 4, 0xdead});
  std::vector<Write> wb = base;
  wb.push_back({5, 4, 0xbeef});
  const auto rep = Triage::analyze(parse(script_dump(8, wa)),
                                   parse(script_dump(8, wb)), {"tb.p0"});
  const auto& p = rep.ports[0];
  ASSERT_EQ(p.windows.size(), 1u);
  const auto& w = p.windows[0];
  EXPECT_EQ(w.begin, 5u);
  ASSERT_EQ(w.signals.size(), 1u);
  EXPECT_EQ(w.signals[0], "tb.p0.data");
  for (const stba::InFlightCell* c : {&w.in_flight_a, &w.in_flight_b}) {
    ASSERT_TRUE(c->valid);
    EXPECT_EQ(c->cycle, 2u);
    EXPECT_FALSE(c->response);
    EXPECT_EQ(c->opc_name, "ST8");
    EXPECT_EQ(c->add, "0x40");
    EXPECT_EQ(c->src, "0x2");
    EXPECT_EQ(c->tid, "0x3");
  }
}

TEST(Triage, InFlightAbsentBeforeFirstGrant) {
  // Divergence at cycle 1, first granted cell only at cycle 6.
  const auto a = parse(script_dump(
      10, {{1, 4, 7}, {6, 0, 1}, {6, 1, 1}, {7, 0, 0}, {7, 1, 0}}));
  const auto b = parse(script_dump(10, {{6, 0, 1}, {6, 1, 1}, {7, 0, 0},
                                        {7, 1, 0}}));
  const auto rep = Triage::analyze(a, b, {"tb.p0"});
  const auto& p = rep.ports[0];
  ASSERT_FALSE(p.windows.empty());
  EXPECT_EQ(p.windows[0].begin, 1u);
  EXPECT_FALSE(p.windows[0].in_flight_a.valid);
  EXPECT_FALSE(p.windows[0].in_flight_b.valid);
}

// End-to-end transaction correlation: a real seeded BCA fault must come
// out of triage with a named port, cycle, signals and a decoded in-flight
// opcode — the artifact a human debugs from.
TEST(Triage, SeededFaultNamesPortCycleAndOpcode) {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  std::ostringstream rtl_os, bca_os;
  for (int m = 0; m < 2; ++m) {
    verif::TestbenchOptions opts;
    opts.model = m == 0 ? verif::ModelKind::kRtl : verif::ModelKind::kBca;
    opts.seed = 7;
    opts.vcd_stream = m == 0 ? &rtl_os : &bca_os;
    if (m == 1) opts.faults.grant_during_lock = true;
    verif::TestSpec spec = verif::t05_chunked_traffic();
    spec.n_transactions = 40;
    verif::Testbench tb(cfg, spec, opts);
    tb.run();
  }
  const std::vector<std::string> ports = {"tb.init0", "tb.init1", "tb.targ0",
                                          "tb.targ1"};
  const auto a = parse(rtl_os.str());
  const auto b = parse(bca_os.str());
  const auto rep = Triage::analyze(a, b, ports);
  ASSERT_TRUE(rep.any_diverged());
  EXPECT_NE(rep.first_divergence, TriageReport::kNone);
  EXPECT_FALSE(rep.first_port.empty());
  // The triage accounting agrees with the sign-off analyzer.
  const auto align = Analyzer::compare(a, b, ports);
  ASSERT_EQ(rep.ports.size(), align.ports.size());
  bool saw_in_flight = false;
  for (std::size_t i = 0; i < rep.ports.size(); ++i) {
    EXPECT_EQ(rep.ports[i].aligned_cycles, align.ports[i].aligned_cycles);
    EXPECT_EQ(rep.ports[i].total_cycles, align.ports[i].total_cycles);
    for (const auto& w : rep.ports[i].windows) {
      EXPECT_FALSE(w.signals.empty());
      if (w.in_flight_a.valid) {
        saw_in_flight = true;
        EXPECT_NE(w.in_flight_a.opc_name, "?");
        EXPECT_LE(w.in_flight_a.cycle, w.begin);
      }
    }
  }
  EXPECT_TRUE(saw_in_flight);
}

TEST(Triage, JsonCarriesContextAndBuildStamp) {
  const auto a = parse(script_dump(4, {{1, 0, 1}, {2, 0, 0}}));
  const auto b = parse(script_dump(4, {}));
  const auto rep = Triage::analyze(a, b, {"tb.p0"});
  const std::string doc = rep.json({{"test", "t05"}, {"seed", "7"}});
  EXPECT_NE(doc.find("\"build\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"git_hash\""), std::string::npos);
  EXPECT_NE(doc.find("\"test\": \"t05\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": \"7\""), std::string::npos);
  EXPECT_NE(doc.find("\"any_diverged\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"first_divergence\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"first_port\": \"tb.p0\""), std::string::npos);
  EXPECT_NE(doc.find("\"interval_count\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"windows\": ["), std::string::npos);
  // Byte-deterministic for fixed inputs.
  EXPECT_EQ(doc, rep.json({{"test", "t05"}, {"seed", "7"}}));
}

// --- VCD excerpt --------------------------------------------------------

TEST(VcdExcerpt, RoundTripsThroughParser) {
  const auto full = parse(script_dump(
      40, {{0, 3, 0x10}, {5, 0, 1}, {5, 1, 1}, {6, 0, 0}, {6, 1, 0},
           {12, 4, 0xcafe}, {20, 0, 1}, {21, 0, 0}, {30, 3, 0x80}}));
  std::ostringstream os;
  vcd::write_excerpt(full, 10, 25, os);
  const auto cut = parse(os.str());
  // Same variable table, original hierarchy.
  ASSERT_EQ(cut.vars().size(), full.vars().size());
  for (std::size_t v = 0; v < full.vars().size(); ++v) {
    EXPECT_EQ(cut.vars()[v].name, full.vars()[v].name);
    EXPECT_EQ(cut.vars()[v].width, full.vars()[v].width);
  }
  // Every settled value inside the window matches the full trace,
  // including state carried in from before the window (the snapshot).
  for (std::uint64_t t = 10; t <= 25; ++t) {
    for (std::size_t v = 0; v < full.vars().size(); ++v) {
      EXPECT_EQ(cut.value_at(static_cast<int>(v), t),
                full.value_at(static_cast<int>(v), t))
          << "var " << full.vars()[v].name << " @ " << t;
    }
  }
  // The extent is explicit even though cycle 25 is quiet.
  EXPECT_EQ(cut.max_time(), 25u);
}

TEST(VcdExcerpt, EndClampedToTraceExtent) {
  const auto full = parse(script_dump(10, {{2, 0, 1}, {4, 0, 0}}));
  std::ostringstream os;
  vcd::write_excerpt(full, 0, 1000, os);
  const auto cut = parse(os.str());
  EXPECT_EQ(cut.max_time(), full.max_time());
  EXPECT_EQ(cut.value_at(0, 3).text(), "1");
  EXPECT_EQ(cut.value_at(0, 5).text(), "0");
}

TEST(VcdExcerpt, SnapshotOnlyWindowKeepsState) {
  const auto full = parse(script_dump(10, {{2, 3, 0x44}}));
  std::ostringstream os;
  // Window entirely past the last change: header + snapshot of the final
  // state, no in-window changes.
  vcd::write_excerpt(full, 9, 9, os);
  const auto cut = parse(os.str());
  const auto add = cut.find("tb.p0.add");
  ASSERT_TRUE(add.has_value());
  EXPECT_EQ(cut.value_at(*add, 9), full.value_at(*full.find("tb.p0.add"), 9));
}

}  // namespace
}  // namespace crve

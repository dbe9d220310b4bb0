// Tests for the STBus Analyzer: alignment rates, divergence localisation,
// transaction extraction.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "stba/analyzer.h"
#include "stba_expect.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using stba::Analyzer;

// Builds a VCD dump with one port whose req/gnt toggle as scripted.
std::string synth_dump(const std::vector<std::pair<bool, bool>>& req_gnt,
                       std::uint64_t add_value = 0x40) {
  std::ostringstream os;
  os << "$timescale 1ns $end\n$scope module tb $end\n"
     << "$scope module p0 $end\n";
  const char* names[] = {"req", "gnt", "opc", "add", "data", "be", "eop",
                         "lck", "src", "tid", "r_req", "r_gnt", "r_opc",
                         "r_data", "r_eop", "r_src", "r_tid"};
  const int widths[] = {1, 1, 6, 32, 32, 4, 1, 1, 6, 8, 1, 1, 2, 32, 1, 6, 8};
  for (int i = 0; i < 17; ++i) {
    os << "$var wire " << widths[i] << " " << static_cast<char>('!' + i)
       << " " << names[i] << " $end\n";
  }
  os << "$upscope $end\n$upscope $end\n$enddefinitions $end\n";
  for (std::size_t t = 0; t < req_gnt.size(); ++t) {
    os << "#" << t << "\n";
    os << (req_gnt[t].first ? "1" : "0") << "!\n";
    os << (req_gnt[t].second ? "1" : "0") << "\"\n";
    if (t == 0) {
      os << "b" << crve::Bits(32, add_value).to_bin_string() << " $\n";
      os << "b1 '\n";  // eop
    }
  }
  return os.str();
}

vcd::Trace parse(const std::string& s) {
  std::istringstream is(s);
  return vcd::Trace::parse(is);
}

// Like synth_dump but with free-form writes: (time, field index, value),
// field indices in Analyzer::port_fields() order. An empty script yields a
// header-only dump with no activity on the port.
std::string field_dump(std::uint64_t cycles,
                       const std::vector<std::tuple<std::uint64_t, int,
                                                    std::uint64_t>>& writes) {
  std::ostringstream os;
  os << "$timescale 1ns $end\n$scope module tb $end\n"
     << "$scope module p0 $end\n";
  const char* names[] = {"req", "gnt", "opc", "add", "data", "be", "eop",
                         "lck", "src", "tid", "r_req", "r_gnt", "r_opc",
                         "r_data", "r_eop", "r_src", "r_tid"};
  const int widths[] = {1, 1, 6, 32, 32, 4, 1, 1, 6, 8, 1, 1, 2, 32, 1, 6, 8};
  for (int i = 0; i < 17; ++i) {
    os << "$var wire " << widths[i] << " " << static_cast<char>('!' + i)
       << " " << names[i] << " $end\n";
  }
  os << "$upscope $end\n$upscope $end\n$enddefinitions $end\n";
  std::uint64_t t = ~std::uint64_t{0};
  for (const auto& [time, field, value] : writes) {
    if (time != t) {
      os << "#" << time << "\n";
      t = time;
    }
    const char id = static_cast<char>('!' + field);
    if (widths[field] == 1) {
      os << (value ? "1" : "0") << id << "\n";
    } else {
      os << "b" << crve::Bits(widths[field], value).to_bin_string() << " "
         << id << "\n";
    }
  }
  if (cycles > 0 && (t == ~std::uint64_t{0} || t < cycles - 1)) {
    os << "#" << (cycles - 1) << "\n";
  }
  return os.str();
}

// One STBus port of a ports_dump: its dotted scope, the width of its `add`
// field, and optionally one field (port_fields() index) left undeclared.
struct DumpPort {
  std::string scope;
  int add_width = 32;
  int missing = -1;
};

// Like field_dump, for several ports: writes are (time, port index, field
// index, value).
std::string ports_dump(
    std::uint64_t cycles, const std::vector<DumpPort>& ports,
    const std::vector<std::tuple<std::uint64_t, int, int, std::uint64_t>>&
        writes) {
  const auto& names = Analyzer::port_fields();
  int widths[] = {1, 1, 6, 32, 32, 4, 1, 1, 6, 8, 1, 1, 2, 32, 1, 6, 8};
  std::ostringstream os;
  os << "$timescale 1ns $end\n";
  for (std::size_t p = 0; p < ports.size(); ++p) {
    std::istringstream path(ports[p].scope);
    int depth = 0;
    for (std::string part; std::getline(path, part, '.'); ++depth) {
      os << "$scope module " << part << " $end\n";
    }
    widths[3] = ports[p].add_width;
    for (int f = 0; f < 17; ++f) {
      if (f == ports[p].missing) continue;
      os << "$var wire " << widths[f] << " "
         << vcd::id_code(static_cast<int>(p) * 17 + f) << " "
         << names[static_cast<std::size_t>(f)] << " $end\n";
    }
    for (; depth > 0; --depth) os << "$upscope $end\n";
  }
  os << "$enddefinitions $end\n";
  std::uint64_t t = ~std::uint64_t{0};
  for (const auto& [time, port, field, value] : writes) {
    if (time != t) {
      os << "#" << time << "\n";
      t = time;
    }
    const int width =
        field == 3 ? ports[static_cast<std::size_t>(port)].add_width
                   : widths[field];
    const std::string id = vcd::id_code(port * 17 + field);
    if (width == 1) {
      os << (value ? "1" : "0") << id << "\n";
    } else {
      os << "b" << crve::Bits(width, value).to_bin_string() << " " << id
         << "\n";
    }
  }
  if (cycles > 0 && (t == ~std::uint64_t{0} || t < cycles - 1)) {
    os << "#" << (cycles - 1) << "\n";
  }
  return os.str();
}

TEST(Stba, IdenticalDumpsFullyAligned) {
  const std::string d = synth_dump({{false, false}, {true, true}, {false, false}});
  const auto a = parse(d);
  const auto b = parse(d);
  const auto rep = Analyzer::compare(a, b, {"tb.p0"});
  ASSERT_EQ(rep.ports.size(), 1u);
  EXPECT_EQ(rep.ports[0].aligned_cycles, rep.ports[0].total_cycles);
  EXPECT_DOUBLE_EQ(rep.ports[0].rate(), 1.0);
  EXPECT_FALSE(rep.ports[0].diverged());
  EXPECT_TRUE(rep.signed_off());
  EXPECT_EQ(rep.ports[0].cells_a, rep.ports[0].cells_matching);
}

TEST(Stba, DivergenceLocatedAndRated) {
  const auto a =
      parse(synth_dump({{false, false}, {true, true}, {false, false},
                        {false, false}}));
  const auto b =
      parse(synth_dump({{false, false}, {false, false}, {true, true},
                        {false, false}}));
  const auto rep = Analyzer::compare(a, b, {"tb.p0"});
  const auto& p = rep.ports[0];
  EXPECT_EQ(p.total_cycles, 4u);
  EXPECT_EQ(p.aligned_cycles, 2u);  // cycles 0 and 3 agree
  EXPECT_EQ(p.first_divergence, 1u);
  ASSERT_FALSE(p.diverged_signals.empty());
  EXPECT_EQ(p.diverged_signals[0], "tb.p0.req");
  EXPECT_FALSE(rep.signed_off());
  // Transaction content still matches (one granted cell in each).
  EXPECT_EQ(p.cells_a, 1u);
  EXPECT_EQ(p.cells_b, 1u);
  EXPECT_EQ(p.cells_matching, 1u);
}

TEST(Stba, ContentDifferenceCaughtInCellDiff) {
  const auto a = parse(synth_dump({{true, true}}, 0x40));
  const auto b = parse(synth_dump({{true, true}}, 0x80));
  const auto rep = Analyzer::compare(a, b, {"tb.p0"});
  EXPECT_EQ(rep.ports[0].cells_matching, 0u);
  EXPECT_LT(rep.ports[0].rate(), 1.0);
}

TEST(Stba, MissingSignalThrows) {
  const auto a = parse(synth_dump({{false, false}}));
  EXPECT_THROW(Analyzer::compare(a, a, {"tb.nosuch"}), std::runtime_error);
}

TEST(Stba, ExtractRecoversCells) {
  const auto a = parse(synth_dump(
      {{false, false}, {true, false}, {true, true}, {false, false}}));
  const auto cells = test::cells_of(a, "tb.p0");
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].cycle, 2u);  // only the granted cycle counts
  EXPECT_FALSE(cells[0].response);
  EXPECT_TRUE(cells[0].eop);
}

TEST(Stba, ThresholdSweep) {
  // 1 diverging cycle out of 200 -> 99.5%: signs off at 99% but not 99.9%.
  std::vector<std::pair<bool, bool>> x(200, {false, false});
  auto y = x;
  y[100] = {true, true};
  const auto rep =
      Analyzer::compare(parse(synth_dump(x)), parse(synth_dump(y)),
                        {"tb.p0"});
  EXPECT_NEAR(rep.ports[0].rate(), 0.995, 1e-9);
  EXPECT_TRUE(rep.signed_off(0.99));
  EXPECT_FALSE(rep.signed_off(0.999));
}

TEST(Stba, ExtractRecoversLockedCell) {
  // One granted request cell with the lock bit held.
  const auto t = parse(field_dump(
      4, {{1, 0, 1}, {1, 1, 1}, {1, 7, 1}, {1, 6, 1}, {2, 0, 0}, {2, 1, 0},
          {2, 7, 0}}));
  const auto cells = test::cells_of(t, "tb.p0");
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].cycle, 1u);
  EXPECT_FALSE(cells[0].response);
  EXPECT_TRUE(cells[0].lck);
  EXPECT_TRUE(cells[0].eop);
}

TEST(Stba, ExtractRecoversResponseOnlyTraffic) {
  // Only the response channel moves: r_req & r_gnt high for one cycle.
  const auto t = parse(field_dump(
      5, {{2, 10, 1}, {2, 11, 1}, {2, 12, 1}, {3, 10, 0}, {3, 11, 0}}));
  const auto cells = test::cells_of(t, "tb.p0");
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].cycle, 2u);
  EXPECT_TRUE(cells[0].response);
  EXPECT_EQ(cells[0].opc.text(), "01");  // r_opc is the 2-bit response opcode
}

TEST(Stba, SilentPortGetsActivityNote) {
  const auto active = parse(field_dump(6, {{1, 0, 1}, {2, 0, 0}}));
  const auto silent = parse(field_dump(6, {}));
  const auto rep = Analyzer::compare(active, silent, {"tb.p0"});
  ASSERT_EQ(rep.ports.size(), 1u);
  EXPECT_NE(rep.ports[0].note.find("dump B has no activity"),
            std::string::npos);
  EXPECT_EQ(Analyzer::compare(active, active, {"tb.p0"}).ports[0].note, "");
  EXPECT_NE(Analyzer::compare(silent, silent, {"tb.p0"})
                .ports[0]
                .note.find("either dump"),
            std::string::npos);
}

TEST(Stba, AlignmentReportJsonShape) {
  const auto a =
      parse(synth_dump({{false, false}, {true, true}, {false, false}}));
  const auto b =
      parse(synth_dump({{false, false}, {false, true}, {false, false}}));
  const auto rep = Analyzer::compare(a, b, {"tb.p0"});
  const std::string doc = rep.json(0.99);
  EXPECT_NE(doc.find("\"build\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"threshold\": 0.99"), std::string::npos);
  EXPECT_NE(doc.find("\"signed_off\": false"), std::string::npos);
  EXPECT_NE(doc.find("\"port\": \"tb.p0\""), std::string::npos);
  EXPECT_NE(doc.find("\"first_divergence\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"diverged_signals\": [\"tb.p0.req\"]"),
            std::string::npos);
  // Byte-deterministic, and the fully-aligned rendering drops the
  // divergence members.
  EXPECT_EQ(doc, rep.json(0.99));
  const std::string clean = Analyzer::compare(a, a, {"tb.p0"}).json();
  EXPECT_EQ(clean.find("\"first_divergence\""), std::string::npos);
  EXPECT_NE(clean.find("\"signed_off\": true"), std::string::npos);
}

// End-to-end: real testbench dumps through the real analyzer.
TEST(Stba, EndToEndIdenticalViews) {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  std::ostringstream rtl_os, bca_os;
  for (int m = 0; m < 2; ++m) {
    verif::TestbenchOptions opts;
    opts.model = m == 0 ? verif::ModelKind::kRtl : verif::ModelKind::kBca;
    opts.seed = 9;
    opts.vcd_stream = m == 0 ? &rtl_os : &bca_os;
    verif::TestSpec spec = verif::t02_random_all_opcodes();
    spec.n_transactions = 30;
    verif::Testbench tb(cfg, spec, opts);
    ASSERT_TRUE(tb.run().passed());
  }
  const auto rep = Analyzer::compare(
      parse(rtl_os.str()), parse(bca_os.str()),
      {"tb.init0", "tb.init1", "tb.targ0", "tb.targ1"});
  EXPECT_TRUE(rep.signed_off(0.999999)) << rep.summary();
}

// A 97% pair judged at 0.95: the text verdict follows the threshold the
// caller judges with, and names it.
TEST(Stba, SummaryJudgesAgainstGivenThreshold) {
  std::vector<std::pair<bool, bool>> x(100, {false, false});
  auto y = x;
  y[10] = y[40] = y[70] = {true, true};
  const auto rep = Analyzer::compare(parse(synth_dump(x)),
                                     parse(synth_dump(y)), {"tb.p0"});
  EXPECT_NEAR(rep.ports[0].rate(), 0.97, 1e-9);
  const std::string at95 = rep.summary(0.95);
  EXPECT_NE(at95.find("min rate 97%, SIGNED OFF (>=95% everywhere)\n"),
            std::string::npos)
      << at95;
  EXPECT_NE(rep.json(0.95).find("\"signed_off\": true"), std::string::npos);
  EXPECT_NE(rep.summary(0.99).find("min rate 97%, NOT signed off\n"),
            std::string::npos);
  EXPECT_EQ(rep.summary(), rep.summary(0.99));
}

TEST(Stba, SummaryAtDefaultThresholdKeepsItsText) {
  const auto a = parse(synth_dump({{false, false}, {true, true}}));
  const std::string text = Analyzer::compare(a, a, {"tb.p0"}).summary();
  EXPECT_EQ(text,
            "tb.p0: 2/2 (100%)\n"
            "min rate 100%, SIGNED OFF (>=99% everywhere)\n");
}

TEST(Stba, ParseThresholdAcceptsOnlyUnitInterval) {
  EXPECT_EQ(stba::parse_threshold("0.99"), 0.99);
  EXPECT_EQ(stba::parse_threshold("1"), 1.0);
  EXPECT_EQ(stba::parse_threshold("0.5"), 0.5);
  EXPECT_EQ(stba::parse_threshold("95e-2"), 0.95);
  for (const char* bad : {"", "abc", "0.9x", " 0.9", "nan", "NaN", "inf",
                          "-inf", "0", "-0.5", "1.0001", "2"}) {
    EXPECT_FALSE(stba::parse_threshold(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Stba, AbsentFieldIsReportedAsAbsent) {
  const auto t = parse(ports_dump(4, {{"tb.p0", 32, /*missing=*/16}}, {}));
  try {
    Analyzer::resolve_port_fields(t, "tb.p0");
    FAIL() << "resolved a port without r_tid";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "STBA: signal tb.p0.r_tid not found in dump");
  }
}

TEST(Stba, AmbiguousFieldListsTheCandidates) {
  // Two scopes end in "p0", so "p0.req" names two variables.
  const auto t = parse(ports_dump(4, {{"top.x.p0"}, {"top.y.p0"}}, {}));
  try {
    Analyzer::resolve_port_fields(t, "p0");
    FAIL() << "resolved an ambiguous port";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "STBA: signal p0.req is ambiguous in dump: matches "
                 "top.x.p0.req, top.y.p0.req");
  }
  // A longer dotted suffix tells them apart.
  EXPECT_EQ(Analyzer::resolve_port_fields(t, "x.p0")[0], *t.find("x.p0.req"));
  EXPECT_EQ(Analyzer::resolve_port_fields(t, "top.y.p0")[16],
            *t.find("top.y.p0.r_tid"));
  EXPECT_THROW(Analyzer::compare(t, t, {"x.p0", "p0"}), std::runtime_error);
}

// One pass over the variable table resolves each field to the variable
// Trace::find gives, for every way of naming the port.
TEST(Stba, ResolvePortsAgreesWithFind) {
  const auto t = parse(
      ports_dump(4, {{"top.tb.p0"}, {"top.tb.p1"}, {"other.p2"}}, {}));
  const std::vector<std::string> ports = {"tb.p0", "top.tb.p1", "p2",
                                          "tb.p0", "top.tb.p0"};
  const auto idx = Analyzer::resolve_ports(t, ports);
  ASSERT_EQ(idx.size(), ports.size());
  for (std::size_t p = 0; p < ports.size(); ++p) {
    for (std::size_t f = 0; f < 17; ++f) {
      const auto v = t.find(ports[p] + "." + Analyzer::port_fields()[f]);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(idx[p][f], *v) << ports[p] << " field " << f;
    }
  }
  // A proper suffix that is not at a dot boundary is no match.
  EXPECT_THROW(Analyzer::resolve_ports(t, {"b.p0"}), std::runtime_error);
}

// --- whole-recording proof vs merge, edge cases --------------------------

// Both dumps silent, but `add` declared 32 bits wide in one and 16 in the
// other: the lists are equal and empty, the widths are not, so the
// recordings differ, the port is walked and its all-zero values differ on
// every cycle, as before.
TEST(IdentityProof, EmptyListsOfDifferentWidthsAreWalked) {
  const auto a = parse(ports_dump(5, {{"tb.p0", 32}}, {}));
  const auto b = parse(ports_dump(5, {{"tb.p0", 16}}, {}));
  EXPECT_FALSE(test::expect_proof_matches_merge(a, b, {"tb.p0"}, "widths"));
  EXPECT_TRUE(test::expect_proof_matches_merge(b, b, {"tb.p0"}, "equal"));
  const auto p = Analyzer::compare(a, b, {"tb.p0"}).ports[0];
  EXPECT_EQ(p.aligned_cycles, 0u);
  EXPECT_EQ(p.first_divergence, 0u);
  EXPECT_EQ(p.diverged_signals, std::vector<std::string>{"tb.p0.add"});
}

// Same port lists, different trace ends: the recordings differ, so the
// port is walked; it is aligned on all max(a,b)+1 cycles, and a grant
// still held at the end counts cells up to each trace's own end.
TEST(IdentityProof, DifferentMaxTimeCountsCellsPerTrace) {
  const std::vector<std::tuple<std::uint64_t, int, std::uint64_t>> writes = {
      {2, 0, 1}, {2, 1, 1}, {3, 10, 1}, {3, 11, 1}, {3, 12, 1}};
  const auto a = parse(field_dump(6, writes));
  const auto b = parse(field_dump(12, writes));
  ASSERT_NE(a.max_time(), b.max_time());
  EXPECT_FALSE(test::expect_proof_matches_merge(a, b, {"tb.p0"}, "ends"));
  const auto p = Analyzer::compare(a, b, {"tb.p0"}).ports[0];
  EXPECT_EQ(p.total_cycles, 12u);
  EXPECT_EQ(p.aligned_cycles, 12u);
  EXPECT_EQ(p.cells_a, 4u + 3u);   // request 2..5, response 3..5
  EXPECT_EQ(p.cells_b, 10u + 9u);  // request 2..11, response 3..11
  EXPECT_EQ(p.cells_matching, 7u);
  // Either order; one trace against itself takes the proof.
  test::expect_proof_matches_merge(b, a, {"tb.p0"}, "ends, swapped");
  EXPECT_TRUE(test::expect_proof_matches_merge(b, b, {"tb.p0"}, "equal"));
  EXPECT_EQ(Analyzer::compare(b, b, {"tb.p0"}).ports[0].cells_matching,
            19u);
}

TEST(IdentityProof, PortEmptyInBothKeepsVacuousNote) {
  const auto a = parse(field_dump(6, {}));
  const auto b = parse(field_dump(9, {}));
  EXPECT_FALSE(test::expect_proof_matches_merge(a, b, {"tb.p0"}, "silent"));
  EXPECT_TRUE(test::expect_proof_matches_merge(a, a, {"tb.p0"}, "equal"));
  const auto p = Analyzer::compare(a, b, {"tb.p0"}).ports[0];
  EXPECT_EQ(p.aligned_cycles, p.total_cycles);
  EXPECT_EQ(p.note, "no activity on this port in either dump; rate is vacuous");
}

TEST(IdentityProof, IdenticalAndDivergedPortInOnePair) {
  const std::vector<DumpPort> ports = {{"tb.p0"}, {"tb.p1"}};
  const auto a = parse(ports_dump(
      8, ports, {{1, 0, 0, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 1},
                 {2, 0, 0, 0}, {2, 0, 1, 0}, {2, 1, 0, 0}, {2, 1, 1, 0}}));
  // p1's grant comes a cycle late in B.
  const auto b = parse(ports_dump(
      8, ports, {{1, 0, 0, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {2, 0, 0, 0},
                 {2, 0, 1, 0}, {2, 1, 1, 1}, {3, 1, 0, 0}, {3, 1, 1, 0}}));
  EXPECT_FALSE(
      test::expect_proof_matches_merge(a, b, {"tb.p0", "tb.p1"}, "mixed"));
  EXPECT_TRUE(
      test::expect_proof_matches_merge(a, a, {"tb.p0", "tb.p1"}, "equal"));
  const auto rep = Analyzer::compare(a, b, {"tb.p0", "tb.p1"});
  EXPECT_FALSE(rep.ports[0].diverged());
  EXPECT_EQ(rep.ports[0].cells_matching, 1u);
  EXPECT_TRUE(rep.ports[1].diverged());
  EXPECT_EQ(rep.ports[1].first_divergence, 1u);
  const auto tri = stba::Triage::analyze(a, b, {"tb.p0", "tb.p1"});
  EXPECT_EQ(tri.first_port, "tb.p1");
  EXPECT_EQ(tri.ports[0].window_count, 0u);
  EXPECT_EQ(tri.ports[1].window_count, 1u);
}

}  // namespace
}  // namespace crve

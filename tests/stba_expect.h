// Holds STBA's whole-recording proof to the merge it skips: for one trace
// pair, Analyzer::compare must report every port exactly as
// compare_by_merge does, and Triage::analyze exactly as analyze_by_merge
// does. Also the test-side view of the cell decoder (cells_of).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stba/analyzer.h"
#include "stba/triage.h"
#include "vcd/parser.h"

namespace crve::test {

inline void expect_same_alignment(const stba::PortAlignment& got,
                                  const stba::PortAlignment& want,
                                  const std::string& where) {
  EXPECT_EQ(got.port, want.port) << where;
  EXPECT_EQ(got.total_cycles, want.total_cycles) << where;
  EXPECT_EQ(got.aligned_cycles, want.aligned_cycles) << where;
  EXPECT_EQ(got.first_divergence, want.first_divergence) << where;
  EXPECT_EQ(got.diverged_signals, want.diverged_signals) << where;
  EXPECT_EQ(got.note, want.note) << where;
  EXPECT_EQ(got.cells_a, want.cells_a) << where;
  EXPECT_EQ(got.cells_b, want.cells_b) << where;
  EXPECT_EQ(got.cells_matching, want.cells_matching) << where;
}

// Compares both paths on `ports`; returns whether compare() took the
// whole-recording proof, so callers can check the shortcut was actually
// taken.
inline bool expect_proof_matches_merge(
    const vcd::Trace& a, const vcd::Trace& b,
    const std::vector<std::string>& ports, const std::string& where) {
  bool equal = false;
  const auto proved = stba::Analyzer::compare(a, b, ports, &equal);
  const auto walked = stba::Analyzer::compare_by_merge(a, b, ports);
  EXPECT_EQ(proved.ports.size(), ports.size()) << where;
  EXPECT_EQ(walked.ports.size(), ports.size()) << where;
  for (std::size_t p = 0;
       p < ports.size() && p < proved.ports.size() && p < walked.ports.size();
       ++p) {
    expect_same_alignment(proved.ports[p], walked.ports[p],
                          where + "/" + ports[p]);
  }
  // The triage JSON renders every PortTriage member, windows and in-flight
  // cells included.
  EXPECT_EQ(stba::Triage::analyze(a, b, ports).json(),
            stba::Triage::analyze_by_merge(a, b, ports).json())
      << where;
  EXPECT_EQ(equal, a == b) << where;
  return equal;
}

// The granted-cell stream of one port, decoded by the public CellCursor;
// the views stay valid while `t` lives.
inline std::vector<stba::CellView> cells_of(const vcd::Trace& t,
                                            const std::string& port) {
  std::vector<stba::CellView> cells;
  stba::CellCursor cur(t, stba::Analyzer::resolve_port_fields(t, port));
  while (cur.next()) cells.push_back(cur.cell());
  return cells;
}

}  // namespace crve::test

// Divergence triage — the root-cause output of the Analyzer's comparison.
//
// The alignment report answers "is this port aligned and where did it first
// split"; sign-off needs no more. When a campaign FAILS, the debugging
// questions are different: where are ALL the divergence windows, which
// signals carry each one, and what transaction was in flight when the views
// split. Analyzer::compare answers those when handed a TriageReport, in the
// one walk it makes anyway: each port's RunWalker runs fill its windows and
// per-signal intervals as they are classified, and the two CellCursor
// streams its cell diff advances give each window's in-flight cells. The
// regression runner publishes the result as `triage_<test>_s<seed>.json`
// plus a windowed VCD excerpt of both views around the first divergence.
//
// Interval lists are bounded (kMaxIntervals / kMaxWindows) so a totally
// misaligned dump cannot balloon the artifact; the exact totals are always
// kept, so the bound is visible in the report (listed < total).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stba/analyzer.h"
#include "vcd/parser.h"

namespace crve::obs {
struct TxnTraceData;
}

namespace crve::stba {

// Half-open cycle interval [begin, end) on which one signal diverges.
struct SignalInterval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

// All divergence intervals of one signal (one port field) between the dumps.
struct SignalDivergence {
  std::string signal;                    // full dotted name, e.g. "tb.p0.gnt"
  std::uint64_t diverged_cycles = 0;     // exact total across ALL intervals
  std::uint64_t interval_count = 0;      // exact total number of intervals
  std::vector<SignalInterval> intervals; // first kMaxIntervals of them
};

// The transaction in flight on one view when a divergence window opens: the
// most recent granted cell at or before the window's first cycle.
struct InFlightCell {
  bool valid = false;      // false: no cell granted at or before the window
  std::uint64_t cycle = 0; // grant cycle of that cell
  bool response = false;   // request or response channel
  std::string opc;         // raw binary opcode field
  std::string opc_name;    // decoded mnemonic ("LD4", "ST8", "OK", ...)
  std::string add;         // request address as hex ("" for response cells)
  std::string src;         // source id as hex
  std::string tid;         // transaction id as hex

  // `cell` decoded for the report.
  static InFlightCell of(const CellView& cell);
};

// One maximal run of consecutive cycles on which the port views differ.
struct DivergenceWindow {
  std::uint64_t begin = 0;           // first diverged cycle
  std::uint64_t end = 0;             // exclusive
  std::vector<std::string> signals;  // signals diverging at `begin`
  InFlightCell in_flight_a;          // transaction context, view A
  InFlightCell in_flight_b;          // transaction context, view B
};

struct PortTriage {
  std::string port;
  std::uint64_t total_cycles = 0;
  std::uint64_t aligned_cycles = 0;
  std::uint64_t diverged_cycles = 0;
  std::uint64_t window_count = 0;          // exact total
  std::vector<DivergenceWindow> windows;   // first kMaxWindows
  // Per-signal interval lists, port_fields() order, diverged signals only.
  std::vector<SignalDivergence> signals;
  std::string note;  // the comparison's activity note for this port

  double rate() const {
    return total_cycles == 0
               ? 1.0
               : static_cast<double>(aligned_cycles) / total_cycles;
  }
  bool diverged() const { return diverged_cycles != 0; }
};

struct TriageReport {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  std::vector<PortTriage> ports;
  // Earliest divergence across every port; kNone when fully aligned.
  std::uint64_t first_divergence = kNone;
  std::string first_port;  // port holding that earliest divergence

  bool any_diverged() const { return first_divergence != kNone; }

  // Pretty JSON document. `context` pairs (e.g. test/seed/artifact paths)
  // are emitted verbatim as leading string members after the build stamp, so
  // the artifact is self-describing without Triage knowing about campaigns.
  // `raw_sections` are pre-rendered JSON values appended as trailing members
  // (key, value) — the value's lines after the first must already carry a
  // two-space embedding indent. Byte-deterministic for fixed inputs; with
  // both empty the output is unchanged.
  std::string json(
      const std::vector<std::pair<std::string, std::string>>& context = {},
      const std::vector<std::pair<std::string, std::string>>& raw_sections =
          {}) const;
};

// Transaction-lifecycle correlation (DESIGN.md §16): for each divergence
// window, the transactions in flight on each view at the window's first
// cycle, with their lifecycle stage (queued / request / service / response)
// from the txn tracer's span data. Returns a pre-rendered JSON value
// suitable for TriageReport::json raw_sections (conventionally under the
// key "txn_in_flight"); windows and per-view span lists are bounded, exact
// counts kept. View A is conventionally RTL, view B BCA.
std::string txn_flight_json(const TriageReport& report,
                            const obs::TxnTraceData& a,
                            const obs::TxnTraceData& b);

class Triage {
 public:
  // Artifact bounds: listed intervals/windows are capped, exact counts kept.
  static constexpr std::size_t kMaxIntervals = 64;
  static constexpr std::size_t kMaxWindows = 64;

  // Full divergence breakdown of the given ports between two dumps: the
  // triage Analyzer::compare fills on the way. Its cycle accounting is the
  // comparison's.
  static TriageReport analyze(const vcd::Trace& a, const vcd::Trace& b,
                              const std::vector<std::string>& ports);
};

}  // namespace crve::stba

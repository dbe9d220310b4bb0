// STBA — the STBus Analyzer.
//
// Reimplementation of the paper's internal alignment tool: it reads the
// traces of the RTL and BCA regression runs (recorded in-process by
// vcd::Recorder, or parsed from VCD dumps by vcd::Trace::parse), extracts
// STBus transaction information per port, and computes, for every port, the
// alignment rate = (cycles on which all of the port's signals carry the
// same value in both dumps) / (total clock cycles). The paper's sign-off
// threshold for a BCA model is a 99% rate at every port.
//
// Beyond the rate it reports the first divergence (cycle + signals) and a
// transaction-level diff, which is what makes the misalignment actionable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vcd/parser.h"

namespace crve::stba {

struct PortAlignment {
  std::string port;
  std::uint64_t total_cycles = 0;
  std::uint64_t aligned_cycles = 0;
  // First cycle the port differs; ~0ull when fully aligned.
  std::uint64_t first_divergence = ~std::uint64_t{0};
  std::vector<std::string> diverged_signals;  // at the first divergence
  // Set when the rate is not meaningful — e.g. one dump has no activity at
  // all on this port, so the comparison runs against an all-zeros baseline
  // over max(a,b)+1 cycles. Empty for healthy comparisons.
  std::string note;

  // Cell streams compared content-wise (cycle-independent).
  std::uint64_t cells_a = 0;
  std::uint64_t cells_b = 0;
  std::uint64_t cells_matching = 0;

  double rate() const {
    return total_cycles == 0
               ? 1.0
               : static_cast<double>(aligned_cycles) / total_cycles;
  }
  bool diverged() const { return first_divergence != ~std::uint64_t{0}; }

  // The port as a one-line JSON object: rate, cycle counts, first
  // divergence and its signals, note and cell-stream counts. The one
  // rendering behind `crve_stba --json` and the regression report.json.
  std::string json() const;
};

struct AlignmentReport {
  std::vector<PortAlignment> ports;

  double min_rate() const;
  double mean_rate() const;
  // The paper's sign-off criterion: every port at or above `threshold`.
  bool signed_off(double threshold = 0.99) const;
  // Per-port text report and the verdict against `threshold`, which the
  // last line names.
  std::string summary(double threshold = 0.99) const;

  // The full report as a pretty JSON document (machine-readable counterpart
  // of summary(), used by `crve_stba --json`). Carries the build stamp, the
  // verdict against `threshold`, and per-port rate / first-divergence /
  // diverged-signal / cell-stream details. Byte-deterministic for a fixed
  // input pair.
  std::string json(double threshold = 0.99) const;
};

// Parses a sign-off threshold given on a command line: the whole text must
// be a number in (0, 1]. nullopt for anything else (garbage, trailing
// characters, nan, inf, zero, negative or above 1).
std::optional<double> parse_threshold(const std::string& text);

class Analyzer {
 public:
  // Standard STBus field suffixes of one port.
  static const std::vector<std::string>& port_fields();

  // Cycle-level + transaction-level comparison of the given ports (each a
  // dotted prefix such as "tb.init0") between two dumps.
  //
  // Two equal traces (vcd::Trace::operator==: the same variables, max_time
  // and change log) prove every port at once: each is aligned on every
  // cycle, its activity note comes from the change counts and its granted
  // cells from one walk of the log over the handshake fields; no
  // per-variable index is built. Otherwise every port is walked with a
  // RunWalker: the alignment status of a port is constant between change
  // events, so whole runs of unchanged cycles are credited at once, and its
  // two CellCursor streams are diffed in lockstep. O(total changes) instead
  // of O(cycles x fields x log changes), with results identical to the
  // per-cycle scan (tests/test_trace_path.cpp holds the equivalence).
  //
  // When `recordings_equal` is given, it is set to whether the two traces
  // are equal: the one decision a caller needs to know that the two dumps
  // carry the same values on every recorded signal.
  static AlignmentReport compare(const vcd::Trace& a, const vcd::Trace& b,
                                 const std::vector<std::string>& ports,
                                 bool* recordings_equal = nullptr);

  // compare() without the proof: every port takes the RunWalker merge and
  // the cell diff. Its report equals compare()'s; it stays callable so
  // tests and benchmarks can hold the two side by side.
  static AlignmentReport compare_by_merge(
      const vcd::Trace& a, const vcd::Trace& b,
      const std::vector<std::string>& ports);

  static AlignmentReport compare_files(const std::string& path_a,
                                       const std::string& path_b,
                                       const std::vector<std::string>& ports);

  // Variable indices of every requested port's fields in `t`: element p
  // holds ports[p]'s fields in port_fields() order. One pass over the
  // variable table; a field `port.f` resolves as Trace::find would resolve
  // it (the unique variable with that dotted suffix). Throws
  // std::runtime_error naming the field when it is absent, and listing the
  // candidates when it is ambiguous. Shared by compare() and the Triage
  // deep-dive so both resolve identically.
  static std::vector<std::vector<int>> resolve_ports(
      const vcd::Trace& t, const std::vector<std::string>& ports);

  // resolve_ports() for one port.
  static std::vector<int> resolve_port_fields(const vcd::Trace& t,
                                              const std::string& port);

  // The vacuous-rate annotation compare() attaches when one or both dumps
  // show no activity on the port whose fields are `ia` in `a` and `ib` in
  // `b`; empty for a healthy comparison.
  static std::string activity_note(const vcd::Trace& a,
                                   const std::vector<int>& ia,
                                   const vcd::Trace& b,
                                   const std::vector<int>& ib);
};

// One run of a RunWalker: cycles [begin, end) on which every field of the
// port holds one value in each trace. Bit f of `differs` is set when field
// f (Analyzer::port_fields() order) differs between the traces.
struct FieldRun {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint32_t differs = 0;
};

// The k-way merge over one port's field change lists in two traces, shared
// by Analyzer::compare and Triage::analyze when the traces are not equal:
// it hops from change event to change event over [0, total), so each run
// is classified once. Runs end at every change on either side, even when
// `differs` stays the same.
class RunWalker {
 public:
  // `ia`/`ib` are the port's fields as Analyzer::resolve_port_fields gives
  // them for `a`/`b`; the traces must outlive the walker.
  RunWalker(const vcd::Trace& a, const std::vector<int>& ia,
            const vcd::Trace& b, const std::vector<int>& ib,
            std::uint64_t total);

  // Stores the next run in `run`; false once [0, total) is covered.
  bool next(FieldRun& run);

 private:
  std::vector<vcd::Trace::Cursor> ca_, cb_;
  std::uint64_t c_ = 0;
  std::uint64_t total_;
};

// One granted cell as views into a trace's log; the views stay valid while
// the trace lives. A response cell leaves `add` and `be` empty and `lck`
// false.
struct CellView {
  std::uint64_t cycle = 0;
  bool response = false;  // false: request channel, true: response channel
  vcd::Value opc, add, data, be;
  bool eop = false;
  bool lck = false;
  vcd::Value src, tid;

  // Same channel and field values; the cycle stamp is ignored.
  bool same_content(const CellView& o) const {
    return response == o.response && opc == o.opc && add == o.add &&
           data == o.data && be == o.be && eop == o.eop && lck == o.lck &&
           src == o.src && tid == o.tid;
  }
};

// STBA's one cell decoder: walks one port's granted-cell stream in cycle
// order, the request cell before the response cell of the same cycle. A
// channel hands over a cell on every cycle its request and grant are both
// a single 1. A merge over the field change lists: between events every
// field is constant, so the granted state and the cell content hold for
// the whole run and only the cycle stamp varies. Analyzer::compare diffs
// two streams in lockstep; Triage reads each window's in-flight cell.
class CellCursor {
 public:
  // `idx` is the port's fields as Analyzer::resolve_port_fields gives them
  // for `t`; the trace must outlive the cursor.
  CellCursor(const vcd::Trace& t, const std::vector<int>& idx);

  // Advances to the next granted cell; false once the stream is exhausted.
  bool next();

  // The cell next() stopped on.
  const CellView& cell() const { return *cell_; }

 private:
  void start_run(std::uint64_t c);
  vcd::Value field(int f, std::uint64_t c);

  std::vector<vcd::Trace::Cursor> cur_;
  std::uint64_t end_;          // one past the trace's last cycle
  std::uint64_t run_end_ = 0;  // exclusive end of the current run
  std::uint64_t cyc_ = 0;      // cycle being emitted within the run
  // Per cycle of a run: slot 0 is the request cell, slot 1 the response
  // cell; slot_ is the next slot of cycle cyc_ to emit.
  CellView cells_[2];
  bool granted_[2] = {false, false};
  int slot_ = 0;
  const CellView* cell_ = nullptr;
};

}  // namespace crve::stba

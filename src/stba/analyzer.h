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

struct TriageReport;  // stba/triage.h

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
  // When `triage` is given, the same walk also fills it (stba/triage.h):
  // windows and per-signal intervals from the runs, in-flight cells from
  // the cell diff; equal traces leave every port aligned and windowless.
  static AlignmentReport compare(const vcd::Trace& a, const vcd::Trace& b,
                                 const std::vector<std::string>& ports,
                                 bool* recordings_equal = nullptr,
                                 TriageReport* triage = nullptr);

  // compare() without the proof: every port takes the RunWalker merge and
  // the cell diff. Its reports equal compare()'s; it stays callable so
  // tests and benchmarks can hold the two side by side.
  static AlignmentReport compare_by_merge(
      const vcd::Trace& a, const vcd::Trace& b,
      const std::vector<std::string>& ports, TriageReport* triage = nullptr);

  // The report compare() gives `t` against an equal trace, from what the
  // proof needs beyond `t`'s change counts: `fields`, each port's fields
  // as resolve_ports() gives them, and `cells`, each port's granted-cell
  // count (CellCounter). Every port is aligned on every cycle. Publishes
  // the stba.* counters compare() publishes for an equal pair. The
  // regression runner's BCA replay proves a pair without the second
  // recording and hands its own walk of `t`'s log here.
  static AlignmentReport proved_report(
      const vcd::Trace& t, const std::vector<std::string>& ports,
      const std::vector<std::vector<int>>& fields,
      const std::vector<std::uint64_t>& cells);

  static AlignmentReport compare_files(const std::string& path_a,
                                       const std::string& path_b,
                                       const std::vector<std::string>& ports);

  // Variable indices of every requested port's fields in `t`: element p
  // holds ports[p]'s fields in port_fields() order. One pass over the
  // variable table; a field `port.f` resolves as Trace::find would resolve
  // it (the unique variable with that dotted suffix). Throws
  // std::runtime_error naming the field when it is absent, and listing the
  // candidates when it is ambiguous.
  static std::vector<std::vector<int>> resolve_ports(
      const vcd::Trace& t, const std::vector<std::string>& ports);

  // resolve_ports() for one port.
  static std::vector<int> resolve_port_fields(const vcd::Trace& t,
                                              const std::string& port);
};

// One run of a RunWalker: cycles [begin, end) on which every field of the
// port holds one value in each trace. Bit f of `differs` is set when field
// f (Analyzer::port_fields() order) differs between the traces.
struct FieldRun {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint32_t differs = 0;
};

// The k-way merge over one port's field change lists in two traces, which
// Analyzer::compare walks once per port when the traces are not equal: it
// hops from change event to change event over [0, total), so each run is
// classified once, for the alignment count and, when asked, the triage.
// Runs end at every change on either side, even when `differs` stays the
// same.
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

// Counts each port's granted cells over one walk of a trace's log, from
// the four handshake fields alone: a channel hands over a cell on every
// cycle its request and grant are both a single 1, so the count of a
// CellCursor stream without decoding a cell.
class CellCounter {
 public:
  // `n_vars` is the trace's variable count; `ports` holds each port's
  // fields as Analyzer::resolve_ports gives them (a port listed twice
  // shares its variables).
  CellCounter(std::size_t n_vars, const std::vector<std::vector<int>>& ports);

  // Takes the log's next entry; entries come in log order.
  void add(const vcd::Trace::Entry& e) {
    for (int k = head_[static_cast<std::size_t>(e.var)]; k >= 0;
         k = next_[static_cast<std::size_t>(k)]) {
      Port& s = state_[static_cast<std::size_t>(k) / 4];
      const unsigned bit = 1u << (k % 4);
      s.cells += per_cycle(s.high) * (e.time - s.since);
      s.since = e.time;
      s.high = e.value.is_one() ? s.high | bit : s.high & ~bit;
    }
  }

  // Each port's cells in [0, max_time + 1), once the whole log was taken.
  std::vector<std::uint64_t> cells(std::uint64_t max_time) const;

 private:
  struct Port {
    unsigned high = 0;        // bit r: handshake field r (req, gnt, r_req,
                              // r_gnt) is 1
    std::uint64_t since = 0;  // first cycle not yet counted
    std::uint64_t cells = 0;
  };
  static std::uint64_t per_cycle(unsigned high) {
    return ((high & 3u) == 3u) + ((high & 12u) == 12u);
  }

  std::vector<Port> state_;
  // Role k = 4 * port + r. A variable's roles chain from head_[var]
  // through next_[k].
  std::vector<int> head_;
  std::vector<int> next_;
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
// two streams in lockstep and, for a triage, picks each window's in-flight
// cell from them as they pass.
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

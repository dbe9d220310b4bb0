#include "stba/analyzer.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/build_info.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace crve::stba {

const std::vector<std::string>& Analyzer::port_fields() {
  static const std::vector<std::string> kFields = {
      "req",   "gnt",   "opc",   "add",   "data",  "be",   "eop",
      "lck",   "src",   "tid",   "r_req", "r_gnt", "r_opc", "r_data",
      "r_eop", "r_src", "r_tid"};
  return kFields;
}

std::vector<int> Analyzer::resolve_port_fields(const vcd::Trace& t,
                                               const std::string& port) {
  std::vector<int> idx;
  for (const auto& f : port_fields()) {
    auto v = t.find(port + "." + f);
    if (!v) {
      throw std::runtime_error("STBA: signal " + port + "." + f +
                               " not found (or ambiguous) in dump");
    }
    idx.push_back(*v);
  }
  return idx;
}

namespace {

// Field order mirrors port_fields().
enum Field {
  kReq, kGnt, kOpc, kAdd, kData, kBe, kEop, kLck, kSrc, kTid,
  kRReq, kRGnt, kROpc, kRData, kREop, kRSrc, kRTid
};

std::vector<vcd::Trace::Cursor> port_cursors(const vcd::Trace& t,
                                             const std::vector<int>& idx) {
  std::vector<vcd::Trace::Cursor> cur;
  cur.reserve(idx.size());
  for (const int i : idx) cur.push_back(t.cursor(i));
  return cur;
}

// Earliest pending change time across a port's field cursors (kNoChange
// when every list is exhausted). The merge advances in one hop from event
// to event instead of cycle by cycle.
std::uint64_t next_event(const std::vector<vcd::Trace::Cursor>& cur) {
  std::uint64_t next = vcd::Trace::Cursor::kNoChange;
  for (const auto& c : cur) next = std::min(next, c.next_change_time());
  return next;
}

bool port_has_activity(const vcd::Trace& t, const std::vector<int>& idx) {
  for (const int i : idx) {
    if (!t.changes(i).empty()) return true;
  }
  return false;
}

std::string activity_note_of(const vcd::Trace& a, const std::vector<int>& ia,
                             const vcd::Trace& b,
                             const std::vector<int>& ib) {
  const bool a_active = port_has_activity(a, ia);
  const bool b_active = port_has_activity(b, ib);
  if (!a_active && !b_active) {
    return "no activity on this port in either dump; rate is vacuous";
  }
  if (!a_active) {
    return "dump A has no activity on this port; rate compares B "
           "against all-zeros";
  }
  if (!b_active) {
    return "dump B has no activity on this port; rate compares A "
           "against all-zeros";
  }
  return "";
}

// One granted cell as views into the trace's value storage.
struct CellView {
  std::uint64_t cycle = 0;
  bool response = false;
  std::string_view opc, add, data, be;
  bool eop = false;
  bool lck = false;
  std::string_view src, tid;

  bool same_content(const CellView& o) const {
    return response == o.response && opc == o.opc && add == o.add &&
           data == o.data && be == o.be && eop == o.eop && lck == o.lck &&
           src == o.src && tid == o.tid;
  }
};

// Walks one port's granted-cell stream in cycle order, the request cell
// before the response cell of the same cycle. A merge over the field
// change lists: between events every field is constant, so the granted
// state and the cell content hold for the whole run and only the cycle
// stamp varies. The single decode path behind extract() and compare().
class CellCursor {
 public:
  CellCursor(const vcd::Trace& t, const std::vector<int>& idx)
      : cur_(port_cursors(t, idx)), end_(t.max_time() + 1) {}

  // Advances to the next granted cell; false once the stream is exhausted.
  bool next() {
    for (;;) {
      if (cyc_ < run_end_) {
        while (slot_ < 2) {
          const int s = slot_++;
          if (granted_[s]) {
            cells_[s].cycle = cyc_;
            cell_ = &cells_[s];
            return true;
          }
        }
        ++cyc_;
        slot_ = 0;
        continue;
      }
      if (run_end_ >= end_) return false;
      start_run(run_end_);
    }
  }

  // The cell next() stopped on; views stay valid while the trace lives.
  const CellView& cell() const { return *cell_; }

 private:
  void start_run(std::uint64_t c) {
    for (auto& f : cur_) f.value_at(c);  // settle so next_event looks past c
    run_end_ = std::min(next_event(cur_), end_);
    granted_[0] = field(kReq, c) == "1" && field(kGnt, c) == "1";
    granted_[1] = field(kRReq, c) == "1" && field(kRGnt, c) == "1";
    if (granted_[0]) {
      CellView& req = cells_[0];
      req.opc = field(kOpc, c);
      req.add = field(kAdd, c);
      req.data = field(kData, c);
      req.be = field(kBe, c);
      req.eop = field(kEop, c) == "1";
      req.lck = field(kLck, c) == "1";
      req.src = field(kSrc, c);
      req.tid = field(kTid, c);
    }
    if (granted_[1]) {
      CellView& rsp = cells_[1];
      rsp.response = true;
      rsp.opc = field(kROpc, c);
      rsp.data = field(kRData, c);
      rsp.eop = field(kREop, c) == "1";
      rsp.src = field(kRSrc, c);
      rsp.tid = field(kRTid, c);
    }
    cyc_ = granted_[0] || granted_[1] ? c : run_end_;
    slot_ = 0;
  }

  std::string_view field(int f, std::uint64_t c) {
    return cur_[static_cast<std::size_t>(f)].value_at(c);
  }

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

// Cell-stream accounting shared by extract() and compare(): compare()
// walks both streams of a port, so it counts as two extractions.
void count_extracts(std::uint64_t streams, std::uint64_t cells) {
  obs::counter("stba.extracts").add(streams);
  obs::counter("stba.cells_extracted").add(cells);
}

// Content-wise diff of the two granted-cell streams: cells at the same
// stream position are compared field by field, cycle stamps ignored.
void diff_cells(const vcd::Trace& a, const std::vector<int>& ia,
                const vcd::Trace& b, const std::vector<int>& ib,
                PortAlignment& pa) {
  CellCursor xa(a, ia);
  CellCursor xb(b, ib);
  bool ha = xa.next();
  bool hb = xb.next();
  for (; ha && hb; ha = xa.next(), hb = xb.next()) {
    ++pa.cells_a;
    ++pa.cells_b;
    if (xa.cell().same_content(xb.cell())) ++pa.cells_matching;
  }
  for (; ha; ha = xa.next()) ++pa.cells_a;
  for (; hb; hb = xb.next()) ++pa.cells_b;
}

}  // namespace

RunWalker::RunWalker(const vcd::Trace& a, const std::vector<int>& ia,
                     const vcd::Trace& b, const std::vector<int>& ib,
                     std::uint64_t total)
    : ca_(port_cursors(a, ia)), cb_(port_cursors(b, ib)), total_(total) {}

bool RunWalker::next(FieldRun& run) {
  if (c_ >= total_) return false;
  std::uint32_t differs = 0;
  std::uint64_t end = total_;
  for (std::size_t f = 0; f < ca_.size(); ++f) {
    if (ca_[f].value_at(c_) != cb_[f].value_at(c_)) differs |= 1u << f;
    // value_at(c_) settled both cursors, so their next changes lie past c_.
    end = std::min({end, ca_[f].next_change_time(), cb_[f].next_change_time()});
  }
  run = {c_, end, differs};
  c_ = end;
  return true;
}

std::string Analyzer::activity_note(const vcd::Trace& a, const vcd::Trace& b,
                                    const std::string& port) {
  return activity_note_of(a, resolve_port_fields(a, port), b,
                          resolve_port_fields(b, port));
}

std::vector<ExtractedCell> Analyzer::extract(const vcd::Trace& t,
                                             const std::string& port) {
  std::vector<ExtractedCell> cells;
  CellCursor x(t, resolve_port_fields(t, port));
  while (x.next()) {
    const CellView& v = x.cell();
    ExtractedCell& cell = cells.emplace_back();
    cell.cycle = v.cycle;
    cell.response = v.response;
    cell.opc = v.opc;
    cell.add = v.add;
    cell.data = v.data;
    cell.be = v.be;
    cell.eop = v.eop;
    cell.lck = v.lck;
    cell.src = v.src;
    cell.tid = v.tid;
  }
  if (obs::metrics_enabled()) count_extracts(1, cells.size());
  return cells;
}

AlignmentReport Analyzer::compare(const vcd::Trace& a, const vcd::Trace& b,
                                  const std::vector<std::string>& ports) {
  AlignmentReport report;
  const bool metrics = obs::metrics_enabled();
  const std::uint64_t total = std::max(a.max_time(), b.max_time()) + 1;
  for (const auto& port : ports) {
    PortAlignment pa;
    pa.port = port;
    pa.total_cycles = total;
    const std::vector<int> ia = resolve_port_fields(a, port);
    const std::vector<int> ib = resolve_port_fields(b, port);
    pa.note = activity_note_of(a, ia, b, ib);
    RunWalker walk(a, ia, b, ib, total);
    std::uint64_t merge_events = 0;
    for (FieldRun run; walk.next(run);) {
      ++merge_events;
      const std::uint64_t len = run.end - run.begin;
      if (run.differs == 0) {
        pa.aligned_cycles += len;
        if (metrics) obs::histogram("stba.aligned_run_cycles").observe(len);
      } else if (!pa.diverged()) {
        pa.first_divergence = run.begin;
        for (std::size_t f = 0; f < ia.size(); ++f) {
          if (run.differs >> f & 1u) {
            pa.diverged_signals.push_back(port + "." + port_fields()[f]);
          }
        }
      }
    }
    // Transaction-level diff (content compare, cycle-independent).
    diff_cells(a, ia, b, ib, pa);
    if (metrics) {
      obs::counter("stba.ports_compared").inc();
      obs::counter("stba.merge_events").add(merge_events);
      obs::counter("stba.aligned_cycles").add(pa.aligned_cycles);
      obs::counter("stba.compared_cycles").add(pa.total_cycles);
      obs::histogram("stba.merge_events_per_port").observe(merge_events);
      count_extracts(2, pa.cells_a + pa.cells_b);
    }
    report.ports.push_back(std::move(pa));
  }
  if (metrics) obs::counter("stba.compares").inc();
  return report;
}

AlignmentReport Analyzer::compare_files(const std::string& path_a,
                                        const std::string& path_b,
                                        const std::vector<std::string>& ports) {
  const vcd::Trace a = vcd::Trace::parse_file(path_a);
  const vcd::Trace b = vcd::Trace::parse_file(path_b);
  return compare(a, b, ports);
}

double AlignmentReport::min_rate() const {
  double m = 1.0;
  for (const auto& p : ports) m = std::min(m, p.rate());
  return m;
}

double AlignmentReport::mean_rate() const {
  if (ports.empty()) return 1.0;
  double s = 0;
  for (const auto& p : ports) s += p.rate();
  return s / static_cast<double>(ports.size());
}

bool AlignmentReport::signed_off(double threshold) const {
  for (const auto& p : ports) {
    if (p.rate() < threshold) return false;
  }
  return true;
}

std::string AlignmentReport::summary() const {
  std::ostringstream os;
  for (const auto& p : ports) {
    os << p.port << ": " << p.aligned_cycles << "/" << p.total_cycles << " ("
       << 100.0 * p.rate() << "%)";
    if (p.diverged()) {
      os << " first divergence @" << p.first_divergence << " on";
      for (const auto& s : p.diverged_signals) os << " " << s;
    }
    if (!p.note.empty()) os << " [" << p.note << "]";
    os << "\n";
  }
  os << "min rate " << 100.0 * min_rate() << "%, "
     << (signed_off() ? "SIGNED OFF (>=99% everywhere)" : "NOT signed off")
     << "\n";
  return os.str();
}

std::string AlignmentReport::json(double threshold) const {
  std::string out;
  out += "{\n";
  out += "  \"build\": " + build_info_json("  ") + ",\n";
  out += "  \"threshold\": " + json::number(threshold) + ",\n";
  out += std::string("  \"signed_off\": ") +
         (signed_off(threshold) ? "true" : "false") + ",\n";
  out += "  \"min_rate\": " + json::number(min_rate()) + ",\n";
  out += "  \"mean_rate\": " + json::number(mean_rate()) + ",\n";
  out += "  \"ports\": [";
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const PortAlignment& p = ports[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"port\": \"" + json::escape(p.port) + "\"";
    out += ", \"rate\": " + json::number(p.rate());
    out += ", \"aligned_cycles\": " + std::to_string(p.aligned_cycles);
    out += ", \"total_cycles\": " + std::to_string(p.total_cycles);
    out += std::string(", \"diverged\": ") + (p.diverged() ? "true" : "false");
    if (p.diverged()) {
      out += ", \"first_divergence\": " + std::to_string(p.first_divergence);
      out += ", \"diverged_signals\": [";
      for (std::size_t s = 0; s < p.diverged_signals.size(); ++s) {
        if (s != 0) out += ", ";
        out += "\"" + json::escape(p.diverged_signals[s]) + "\"";
      }
      out += "]";
    }
    if (!p.note.empty()) {
      out += ", \"note\": \"" + json::escape(p.note) + "\"";
    }
    out += ", \"cells_a\": " + std::to_string(p.cells_a);
    out += ", \"cells_b\": " + std::to_string(p.cells_b);
    out += ", \"cells_matching\": " + std::to_string(p.cells_matching);
    out += "}";
  }
  out += ports.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace crve::stba

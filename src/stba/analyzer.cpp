#include "stba/analyzer.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

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

std::optional<double> parse_threshold(const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!(v > 0.0 && v <= 1.0)) return std::nullopt;  // also rejects nan
  return v;
}

std::vector<std::vector<int>> Analyzer::resolve_ports(
    const vcd::Trace& t, const std::vector<std::string>& ports) {
  constexpr int kAbsent = -1;
  constexpr int kAmbiguous = -2;
  const auto& fields = port_fields();
  std::vector<std::vector<int>> idx(ports.size(),
                                    std::vector<int>(fields.size(), kAbsent));
  // A port listed twice resolves once, at its first position.
  std::map<std::string_view, std::size_t> slot_of;
  for (std::size_t p = 0; p < ports.size(); ++p) slot_of.emplace(ports[p], p);

  // `port.f` is a dotted suffix of a name exactly when the name's last
  // component is f and `port` is the rest of the name or a dotted suffix
  // of it, so each variable is matched against the ports by looking up
  // every dotted suffix of its scope.
  const auto& vars = t.vars();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const std::string_view name = vars[v].name;
    const std::size_t dot = name.rfind('.');
    if (dot == std::string_view::npos) continue;
    const auto f = std::find(fields.begin(), fields.end(),
                             name.substr(dot + 1));
    if (f == fields.end()) continue;
    const std::string_view scope = name.substr(0, dot);
    for (std::size_t from = 0;;) {
      const auto hit = slot_of.find(scope.substr(from));
      if (hit != slot_of.end()) {
        int& i = idx[hit->second][static_cast<std::size_t>(f - fields.begin())];
        i = i == kAbsent ? static_cast<int>(v) : kAmbiguous;
      }
      const std::size_t next = scope.find('.', from);
      if (next == std::string_view::npos) break;
      from = next + 1;
    }
  }

  for (std::size_t p = 0; p < ports.size(); ++p) {
    const std::size_t first = slot_of.at(ports[p]);
    if (first != p) {
      idx[p] = idx[first];
      continue;
    }
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (idx[p][f] >= 0) continue;
      const std::string signal = ports[p] + "." + fields[f];
      if (idx[p][f] == kAbsent) {
        throw std::runtime_error("STBA: signal " + signal +
                                 " not found in dump");
      }
      std::string candidates;
      for (const int v : t.matches(signal)) {
        candidates += candidates.empty() ? "" : ", ";
        candidates += vars[static_cast<std::size_t>(v)].name;
      }
      throw std::runtime_error("STBA: signal " + signal +
                               " is ambiguous in dump: matches " + candidates);
    }
  }
  return idx;
}

std::vector<int> Analyzer::resolve_port_fields(const vcd::Trace& t,
                                               const std::string& port) {
  return std::move(resolve_ports(t, {port}).front());
}

bool Analyzer::identical(const vcd::Trace& a, const std::vector<int>& ia,
                         const vcd::Trace& b, const std::vector<int>& ib) {
  for (std::size_t f = 0; f < ia.size(); ++f) {
    if (!(a.changes(ia[f]) == b.changes(ib[f]))) return false;
  }
  return true;
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

// A channel hands over a cell on every cycle its request and grant are
// both a single '1'.
bool granted(std::string_view req, std::string_view gnt) {
  return req == "1" && gnt == "1";
}

// Number of granted cells in [0, end): the cell count of a CellCursor
// stream, from the four handshake fields alone.
std::uint64_t count_cells(const vcd::Trace& t, const std::vector<int>& idx,
                          std::uint64_t end) {
  vcd::Trace::Cursor cur[] = {t.cursor(idx[kReq]), t.cursor(idx[kGnt]),
                              t.cursor(idx[kRReq]), t.cursor(idx[kRGnt])};
  std::uint64_t cells = 0;
  for (std::uint64_t c = 0; c < end;) {
    const int per_cycle = granted(cur[0].value_at(c), cur[1].value_at(c)) +
                          granted(cur[2].value_at(c), cur[3].value_at(c));
    std::uint64_t next = end;
    for (const auto& f : cur) next = std::min(next, f.next_change_time());
    cells += static_cast<std::uint64_t>(per_cycle) * (next - c);
    c = next;
  }
  return cells;
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
    granted_[0] = granted(field(kReq, c), field(kGnt, c));
    granted_[1] = granted(field(kRReq, c), field(kRGnt, c));
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
// accounts for both streams of a port, diffed or counted by the identity
// proof, so it counts as two extractions.
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

std::string Analyzer::activity_note(const vcd::Trace& a,
                                   const std::vector<int>& ia,
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

namespace {

// Credits a port whose fields Analyzer::identical() proved equal: aligned
// on every cycle, and the two cell streams agree cell for cell up to the
// shorter trace's end (each stream stops at its own trace's last cycle).
void credit_identical(const vcd::Trace& a, const std::vector<int>& ia,
                      const vcd::Trace& b, const std::vector<int>& ib,
                      PortAlignment& pa) {
  pa.aligned_cycles = pa.total_cycles;
  pa.cells_a = count_cells(a, ia, a.max_time() + 1);
  pa.cells_b = a.max_time() == b.max_time()
                   ? pa.cells_a
                   : count_cells(b, ib, b.max_time() + 1);
  pa.cells_matching = std::min(pa.cells_a, pa.cells_b);
}

// The RunWalker merge and the cell diff of one port.
void walk_port(const vcd::Trace& a, const std::vector<int>& ia,
               const vcd::Trace& b, const std::vector<int>& ib,
               PortAlignment& pa, bool metrics) {
  RunWalker walk(a, ia, b, ib, pa.total_cycles);
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
          pa.diverged_signals.push_back(pa.port + "." +
                                        Analyzer::port_fields()[f]);
        }
      }
    }
  }
  // Transaction-level diff (content compare, cycle-independent).
  diff_cells(a, ia, b, ib, pa);
  if (metrics) {
    obs::counter("stba.merge_events").add(merge_events);
    obs::histogram("stba.merge_events_per_port").observe(merge_events);
  }
}

AlignmentReport compare_ports(const vcd::Trace& a, const vcd::Trace& b,
                              const std::vector<std::string>& ports,
                              bool prove_identical) {
  AlignmentReport report;
  const bool metrics = obs::metrics_enabled();
  const std::uint64_t total = std::max(a.max_time(), b.max_time()) + 1;
  const auto fa = Analyzer::resolve_ports(a, ports);
  const auto fb = Analyzer::resolve_ports(b, ports);
  for (std::size_t p = 0; p < ports.size(); ++p) {
    const std::vector<int>& ia = fa[p];
    const std::vector<int>& ib = fb[p];
    PortAlignment pa;
    pa.port = ports[p];
    pa.total_cycles = total;
    pa.note = Analyzer::activity_note(a, ia, b, ib);
    const bool proven = prove_identical && Analyzer::identical(a, ia, b, ib);
    if (proven) {
      credit_identical(a, ia, b, ib, pa);
    } else {
      walk_port(a, ia, b, ib, pa, metrics);
    }
    if (metrics) {
      obs::counter("stba.ports_compared").inc();
      if (proven) obs::counter("stba.ports_identical").inc();
      obs::counter("stba.aligned_cycles").add(pa.aligned_cycles);
      obs::counter("stba.compared_cycles").add(pa.total_cycles);
      count_extracts(2, pa.cells_a + pa.cells_b);
    }
    report.ports.push_back(std::move(pa));
  }
  if (metrics) obs::counter("stba.compares").inc();
  return report;
}

}  // namespace

AlignmentReport Analyzer::compare(const vcd::Trace& a, const vcd::Trace& b,
                                  const std::vector<std::string>& ports) {
  return compare_ports(a, b, ports, /*prove_identical=*/true);
}

AlignmentReport Analyzer::compare_by_merge(
    const vcd::Trace& a, const vcd::Trace& b,
    const std::vector<std::string>& ports) {
  return compare_ports(a, b, ports, /*prove_identical=*/false);
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

std::string AlignmentReport::summary(double threshold) const {
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
  os << "min rate " << 100.0 * min_rate() << "%, ";
  if (signed_off(threshold)) {
    os << "SIGNED OFF (>=" << 100.0 * threshold << "% everywhere)";
  } else {
    os << "NOT signed off";
  }
  os << "\n";
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

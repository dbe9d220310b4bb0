#include "stba/analyzer.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/build_info.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "stba/triage.h"

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
    if (t.change_count(i) != 0) return true;
  }
  return false;
}

// The vacuous-rate annotation of a port whose fields are `ia` in `a` and
// `ib` in `b`, when one or both dumps show no activity on it; empty for a
// healthy comparison.
std::string activity_note(const vcd::Trace& a, const std::vector<int>& ia,
                          const vcd::Trace& b, const std::vector<int>& ib) {
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

// A channel hands over a cell on every cycle its request and grant are
// both a single 1.
bool granted(const vcd::Value& req, const vcd::Value& gnt) {
  return req.is_one() && gnt.is_one();
}

// Number of granted cells of each port in [0, t.max_time() + 1), in one
// walk of the log for all the ports. `ports` holds each port's fields as
// resolve_ports gives them.
std::vector<std::uint64_t> count_cells(
    const vcd::Trace& t, const std::vector<std::vector<int>>& ports) {
  CellCounter counter(t.vars().size(), ports);
  for (const vcd::Trace::Entry e : t) counter.add(e);
  return counter.cells(t.max_time());
}

}  // namespace

CellCounter::CellCounter(std::size_t n_vars,
                         const std::vector<std::vector<int>>& ports)
    : state_(ports.size()), head_(n_vars, -1), next_(4 * ports.size(), -1) {
  constexpr std::size_t kHandshake[] = {kReq, kGnt, kRReq, kRGnt};
  for (std::size_t p = 0; p < ports.size(); ++p) {
    for (std::size_t r = 0; r < 4; ++r) {
      const int k = static_cast<int>(4 * p + r);
      const auto var = static_cast<std::size_t>(ports[p][kHandshake[r]]);
      next_[static_cast<std::size_t>(k)] = head_[var];
      head_[var] = k;
    }
  }
}

std::vector<std::uint64_t> CellCounter::cells(std::uint64_t max_time) const {
  std::vector<std::uint64_t> out;
  out.reserve(state_.size());
  for (const Port& s : state_) {
    out.push_back(s.cells + per_cycle(s.high) * (max_time + 1 - s.since));
  }
  return out;
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

CellCursor::CellCursor(const vcd::Trace& t, const std::vector<int>& idx)
    : cur_(port_cursors(t, idx)), end_(t.max_time() + 1) {}

bool CellCursor::next() {
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

void CellCursor::start_run(std::uint64_t c) {
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
    req.eop = field(kEop, c).is_one();
    req.lck = field(kLck, c).is_one();
    req.src = field(kSrc, c);
    req.tid = field(kTid, c);
  }
  if (granted_[1]) {
    CellView& rsp = cells_[1];
    rsp.response = true;
    rsp.opc = field(kROpc, c);
    rsp.data = field(kRData, c);
    rsp.eop = field(kREop, c).is_one();
    rsp.src = field(kRSrc, c);
    rsp.tid = field(kRTid, c);
  }
  cyc_ = granted_[0] || granted_[1] ? c : run_end_;
  slot_ = 0;
}

vcd::Value CellCursor::field(int f, std::uint64_t c) {
  return cur_[static_cast<std::size_t>(f)].value_at(c);
}

namespace {

// `port.field` for every field whose bit is set in `differs`.
std::vector<std::string> signal_names(const std::string& port,
                                      std::uint32_t differs) {
  std::vector<std::string> names;
  const auto& fields = Analyzer::port_fields();
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (differs >> f & 1u) names.push_back(port + "." + fields[f]);
  }
  return names;
}

// Files diverged run `run` into an interval list: it extends the interval
// the previous run left `open`, or opens a new one, counted always and
// listed while fewer than `cap` are. Returns the newly listed interval.
template <typename Interval>
Interval* file_run(std::vector<Interval>& listed, std::uint64_t& count,
                   bool open, const FieldRun& run, std::size_t cap) {
  if (open) {
    // The open interval is the last listed one unless the cap cut it.
    if (!listed.empty() && listed.back().end == run.begin) {
      listed.back().end = run.end;
    }
    return nullptr;
  }
  ++count;
  if (listed.size() >= cap) return nullptr;
  Interval& i = listed.emplace_back();
  i.begin = run.begin;
  i.end = run.end;
  return &i;
}

// One view's in-flight cells: as the view's cell stream passes, each
// listed window gets the last granted cell at or before its begin (on a
// shared cycle the response cell, which the stream yields after the
// request cell).
class InFlightMarker {
 public:
  InFlightMarker(std::vector<DivergenceWindow>& windows,
                 InFlightCell DivergenceWindow::*view)
      : windows_(windows), view_(view) {}

  // `cell` is the stream's next cell; null once the stream ended.
  void pass(const CellView* cell) {
    for (; next_ < windows_.size() &&
           (cell == nullptr || windows_[next_].begin < cell->cycle);
         ++next_) {
      if (last_) windows_[next_].*view_ = InFlightCell::of(*last_);
    }
    if (cell != nullptr && next_ < windows_.size()) last_ = *cell;
  }

 private:
  std::vector<DivergenceWindow>& windows_;
  InFlightCell DivergenceWindow::*view_;
  std::size_t next_ = 0;  // first window not yet marked
  std::optional<CellView> last_;
};

// Content-wise diff of the two granted-cell streams: cells at the same
// stream position are compared field by field, cycle stamps ignored. With
// kTriage, each of `windows` also gets its in-flight cells.
template <bool kTriage>
void diff_cells(const vcd::Trace& a, const std::vector<int>& ia,
                const vcd::Trace& b, const std::vector<int>& ib,
                PortAlignment& pa, std::vector<DivergenceWindow>& windows) {
  CellCursor xa(a, ia);
  CellCursor xb(b, ib);
  InFlightMarker fa(windows, &DivergenceWindow::in_flight_a);
  InFlightMarker fb(windows, &DivergenceWindow::in_flight_b);
  bool ha = xa.next();
  bool hb = xb.next();
  for (; ha && hb; ha = xa.next(), hb = xb.next()) {
    ++pa.cells_a;
    ++pa.cells_b;
    if (xa.cell().same_content(xb.cell())) ++pa.cells_matching;
    if constexpr (kTriage) {
      fa.pass(&xa.cell());
      fb.pass(&xb.cell());
    }
  }
  for (; ha; ha = xa.next()) {
    ++pa.cells_a;
    if constexpr (kTriage) fa.pass(&xa.cell());
  }
  for (; hb; hb = xb.next()) {
    ++pa.cells_b;
    if constexpr (kTriage) fb.pass(&xb.cell());
  }
  if constexpr (kTriage) {
    fa.pass(nullptr);
    fb.pass(nullptr);
  }
}

// The RunWalker merge and the cell diff of one port. With kTriage, the
// same pass files every diverged run into `pt`'s windows and per-signal
// intervals, and the cell diff marks each listed window's in-flight cells;
// without, the comparison carries no triage code and `pt` is untouched.
template <bool kTriage>
void walk_port(const vcd::Trace& a, const std::vector<int>& ia,
               const vcd::Trace& b, const std::vector<int>& ib,
               PortAlignment& pa, PortTriage& pt, bool metrics) {
  RunWalker walk(a, ia, b, ib, pa.total_cycles);
  std::uint64_t merge_events = 0;
  // Per field, the diverged cycles and intervals the triage lists.
  std::vector<SignalDivergence> sig(kTriage ? ia.size() : 0);
  std::uint32_t open = 0;  // fields that differed on the previous run
  for (FieldRun run; walk.next(run);) {
    ++merge_events;
    const std::uint64_t len = run.end - run.begin;
    if (run.differs == 0) {
      pa.aligned_cycles += len;
      if (metrics) obs::histogram("stba.aligned_run_cycles").observe(len);
    } else if (!pa.diverged()) {
      pa.first_divergence = run.begin;
      pa.diverged_signals = signal_names(pa.port, run.differs);
    }
    if (kTriage && run.differs != 0) {
      for (std::size_t f = 0; f < sig.size(); ++f) {
        if ((run.differs >> f & 1u) == 0) continue;
        sig[f].diverged_cycles += len;
        file_run(sig[f].intervals, sig[f].interval_count, open >> f & 1u,
                 run, Triage::kMaxIntervals);
      }
      // A port-level window runs on across the event boundary.
      if (DivergenceWindow* w = file_run(pt.windows, pt.window_count,
                                         open != 0, run, Triage::kMaxWindows)) {
        w->signals = signal_names(pa.port, run.differs);
      }
    }
    open = run.differs;
  }
  for (std::size_t f = 0; f < sig.size(); ++f) {
    if (sig[f].diverged_cycles == 0) continue;
    sig[f].signal = pa.port + "." + Analyzer::port_fields()[f];
    pt.signals.push_back(std::move(sig[f]));
  }
  // Transaction-level diff (content compare, cycle-independent).
  diff_cells<kTriage>(a, ia, b, ib, pa, pt.windows);
  if (metrics) {
    obs::counter("stba.merge_events").add(merge_events);
    obs::histogram("stba.merge_events_per_port").observe(merge_events);
  }
}

// The per-port stba.* counters of one compared port.
void publish_port(const PortAlignment& pa) {
  obs::counter("stba.ports_compared").inc();
  obs::counter("stba.aligned_cycles").add(pa.aligned_cycles);
  obs::counter("stba.compared_cycles").add(pa.total_cycles);
  // Both streams of the port, diffed or counted by the proof.
  obs::counter("stba.extracts").add(2);
  obs::counter("stba.cells_extracted").add(pa.cells_a + pa.cells_b);
}

// The stba.* counters of one report, the recording proof's included.
void publish_compare(bool proved) {
  obs::counter("stba.compares").inc();
  if (proved) obs::counter("stba.recordings_identical").inc();
}

AlignmentReport compare_ports(const vcd::Trace& a, const vcd::Trace& b,
                              const std::vector<std::string>& ports,
                              bool prove_equal, bool* recordings_equal,
                              TriageReport* triage) {
  // Equal recordings prove every port at once and share one variable
  // table: each port is aligned on every cycle, and its two cell streams
  // are one stream, so only its cells are counted.
  const bool equal = prove_equal && a == b;
  if (recordings_equal != nullptr) *recordings_equal = equal;
  if (triage != nullptr) {
    *triage = TriageReport{};
    triage->ports.resize(ports.size());
  }
  const auto fa = Analyzer::resolve_ports(a, ports);
  AlignmentReport report;
  if (equal) {
    report = Analyzer::proved_report(a, ports, fa, count_cells(a, fa));
  } else {
    const bool metrics = obs::metrics_enabled();
    const std::uint64_t total = std::max(a.max_time(), b.max_time()) + 1;
    const auto fb = Analyzer::resolve_ports(b, ports);
    for (std::size_t p = 0; p < ports.size(); ++p) {
      PortAlignment pa;
      pa.port = ports[p];
      pa.total_cycles = total;
      pa.note = activity_note(a, fa[p], b, fb[p]);
      if (triage != nullptr) {
        walk_port<true>(a, fa[p], b, fb[p], pa, triage->ports[p], metrics);
      } else {
        PortTriage unused;
        walk_port<false>(a, fa[p], b, fb[p], pa, unused, metrics);
      }
      if (metrics) publish_port(pa);
      report.ports.push_back(std::move(pa));
    }
    if (metrics) publish_compare(/*proved=*/false);
  }
  // Each triage port's cycle accounting and note are its comparison's.
  for (std::size_t p = 0; triage != nullptr && p < ports.size(); ++p) {
    const PortAlignment& pa = report.ports[p];
    PortTriage& pt = triage->ports[p];
    pt.port = pa.port;
    pt.total_cycles = pa.total_cycles;
    pt.aligned_cycles = pa.aligned_cycles;
    pt.diverged_cycles = pa.total_cycles - pa.aligned_cycles;
    pt.note = pa.note;
    if (pa.first_divergence < triage->first_divergence) {
      triage->first_divergence = pa.first_divergence;
      triage->first_port = pa.port;
    }
  }
  return report;
}

}  // namespace

AlignmentReport Analyzer::compare(const vcd::Trace& a, const vcd::Trace& b,
                                  const std::vector<std::string>& ports,
                                  bool* recordings_equal,
                                  TriageReport* triage) {
  return compare_ports(a, b, ports, /*prove_equal=*/true, recordings_equal,
                       triage);
}

AlignmentReport Analyzer::compare_by_merge(
    const vcd::Trace& a, const vcd::Trace& b,
    const std::vector<std::string>& ports, TriageReport* triage) {
  return compare_ports(a, b, ports, /*prove_equal=*/false, nullptr, triage);
}

AlignmentReport Analyzer::proved_report(
    const vcd::Trace& t, const std::vector<std::string>& ports,
    const std::vector<std::vector<int>>& fields,
    const std::vector<std::uint64_t>& cells) {
  AlignmentReport report;
  const bool metrics = obs::metrics_enabled();
  const std::uint64_t total = t.max_time() + 1;
  for (std::size_t p = 0; p < ports.size(); ++p) {
    PortAlignment pa;
    pa.port = ports[p];
    pa.total_cycles = total;
    pa.aligned_cycles = total;
    pa.note = activity_note(t, fields[p], t, fields[p]);
    pa.cells_a = pa.cells_b = pa.cells_matching = cells[p];
    if (metrics) publish_port(pa);
    report.ports.push_back(std::move(pa));
  }
  if (metrics) publish_compare(/*proved=*/true);
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

std::string PortAlignment::json() const {
  std::string out = "{\"port\": \"" + json::escape(port) + "\"";
  out += ", \"rate\": " + json::number(rate());
  out += ", \"aligned_cycles\": " + std::to_string(aligned_cycles);
  out += ", \"total_cycles\": " + std::to_string(total_cycles);
  out += std::string(", \"diverged\": ") + (diverged() ? "true" : "false");
  if (diverged()) {
    out += ", \"first_divergence\": " + std::to_string(first_divergence);
    out += ", \"diverged_signals\": [";
    for (std::size_t s = 0; s < diverged_signals.size(); ++s) {
      if (s != 0) out += ", ";
      out += "\"" + json::escape(diverged_signals[s]) + "\"";
    }
    out += "]";
  }
  if (!note.empty()) out += ", \"note\": \"" + json::escape(note) + "\"";
  out += ", \"cells_a\": " + std::to_string(cells_a);
  out += ", \"cells_b\": " + std::to_string(cells_b);
  out += ", \"cells_matching\": " + std::to_string(cells_matching);
  out += "}";
  return out;
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
    out += i == 0 ? "\n    " : ",\n    ";
    out += ports[i].json();
  }
  out += ports.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace crve::stba

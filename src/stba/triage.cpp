#include "stba/triage.h"

#include <algorithm>
#include <optional>

#include "common/build_info.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/txn_trace.h"
#include "stbus/opcode.h"

namespace crve::stba {

namespace {

// Binary field string -> hex literal of arbitrary width ("0x0" for empty).
std::string bin_to_hex(const std::string& bits) {
  if (bits.empty()) return "0x0";
  std::string out = "0x";
  // Pad the leading nibble implicitly: consume bits MSB-first in groups
  // aligned to the string's tail.
  const std::size_t lead = bits.size() % 4;
  std::size_t pos = 0;
  bool emitted = false;
  auto emit = [&](unsigned nibble) {
    if (!emitted && nibble == 0) return;  // trim leading zero nibbles
    emitted = true;
    out += "0123456789abcdef"[nibble];
  };
  if (lead != 0) {
    unsigned nibble = 0;
    for (; pos < lead; ++pos) nibble = nibble << 1 | (bits[pos] == '1');
    emit(nibble);
  }
  for (; pos < bits.size(); pos += 4) {
    unsigned nibble = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      nibble = nibble << 1 | (bits[pos + i] == '1');
    }
    emit(nibble);
  }
  if (!emitted) out += "0";
  return out;
}

// Binary field string -> value, for opcode decoding (fields are narrow).
std::uint64_t bin_value(const std::string& bits) {
  std::uint64_t v = 0;
  for (char c : bits) v = v << 1 | (c == '1');
  return v;
}

std::string decode_opc(bool response, const std::string& opc) {
  const std::uint64_t v = bin_value(opc);
  if (response) {
    if (v <= 1) return stbus::to_string(static_cast<stbus::RspOpcode>(v));
  } else if (v < static_cast<std::uint64_t>(stbus::kNumOpcodes)) {
    return stbus::to_string(static_cast<stbus::Opcode>(v));
  }
  return "?";
}

// The transaction context a human wants when the views split: the most
// recent granted cell at or before a window's first cycle. Windows come in
// increasing order, so one cursor per view only moves forward, keeping the
// last cell it passed; cells past the last window asked about are never
// decoded.
class InFlight {
 public:
  InFlight(const vcd::Trace& t, const std::vector<int>& idx) : cur_(t, idx) {}

  InFlightCell at(std::uint64_t cycle) {
    if (!started_) {
      started_ = true;
      more_ = cur_.next();
    }
    for (; more_ && cur_.cell().cycle <= cycle; more_ = cur_.next()) {
      last_ = cur_.cell();
    }
    InFlightCell ref;
    if (!last_) return ref;  // nothing granted yet
    const CellView& cell = *last_;
    ref.valid = true;
    ref.cycle = cell.cycle;
    ref.response = cell.response;
    ref.opc = cell.opc.text();
    ref.opc_name = decode_opc(cell.response, ref.opc);
    ref.add = cell.response ? "" : bin_to_hex(cell.add.text());
    ref.src = bin_to_hex(cell.src.text());
    ref.tid = bin_to_hex(cell.tid.text());
    return ref;
  }

 private:
  CellCursor cur_;
  bool started_ = false;
  bool more_ = false;  // cur_ holds a cell not yet passed
  std::optional<CellView> last_;
};

void render_cell(std::string& out, const char* key, const InFlightCell& c,
                 const std::string& in) {
  out += in + "\"" + key + "\": ";
  if (!c.valid) {
    out += "null";
    return;
  }
  out += "{\"cycle\": " + std::to_string(c.cycle);
  out += std::string(", \"channel\": \"") +
         (c.response ? "response" : "request") + "\"";
  out += ", \"opc\": \"" + crve::json::escape(c.opc) + "\"";
  out += ", \"opc_name\": \"" + crve::json::escape(c.opc_name) + "\"";
  if (!c.add.empty()) out += ", \"add\": \"" + c.add + "\"";
  out += ", \"src\": \"" + c.src + "\"";
  out += ", \"tid\": \"" + c.tid + "\"";
  out += "}";
}

// Walks one port of two unequal dumps: every diverged run goes into pt's
// windows and per-signal intervals, and into the report's earliest
// divergence.
void walk_port(const vcd::Trace& a, const std::vector<int>& ia,
               const vcd::Trace& b, const std::vector<int>& ib,
               PortTriage& pt, TriageReport& report) {
  const auto& fields = Analyzer::port_fields();
  const std::string& port = pt.port;
  InFlight flight_a(a, ia);
  InFlight flight_b(b, ib);

  // Per-field interval accumulation state: the exclusive end of the last
  // diverged run per field, to merge adjacent runs into one interval.
  std::vector<SignalDivergence> sig(fields.size());
  std::vector<std::uint64_t> sig_open_end(fields.size(), 0);
  std::vector<bool> sig_seen(fields.size(), false);
  bool window_open = false;
  std::uint64_t window_end = 0;

  // The merge compare() uses: each [c, run_end) run is classified once.
  RunWalker walk(a, ia, b, ib, pt.total_cycles);
  for (FieldRun run; walk.next(run);) {
    const std::uint64_t c = run.begin;
    const std::uint64_t run_end = run.end;
    if (run.differs == 0) {
      pt.aligned_cycles += run_end - c;
      window_open = false;
    } else {
      pt.diverged_cycles += run_end - c;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if ((run.differs >> f & 1u) == 0) continue;
        SignalDivergence& sd = sig[f];
        sd.diverged_cycles += run_end - c;
        if (sig_seen[f] && sig_open_end[f] == c) {
          // Adjacent diverged run on the same signal: extend in place.
          if (!sd.intervals.empty() && sd.intervals.back().end == c) {
            sd.intervals.back().end = run_end;
          }
        } else {
          ++sd.interval_count;
          if (sd.intervals.size() < Triage::kMaxIntervals) {
            sd.intervals.push_back({c, run_end});
          }
        }
        sig_seen[f] = true;
        sig_open_end[f] = run_end;
      }
      if (window_open && window_end == c) {
        // Same port-level window continues across the event boundary.
        if (!pt.windows.empty() && pt.windows.back().end == c) {
          pt.windows.back().end = run_end;
        }
      } else {
        ++pt.window_count;
        if (pt.windows.size() < Triage::kMaxWindows) {
          DivergenceWindow w;
          w.begin = c;
          w.end = run_end;
          for (std::size_t f = 0; f < fields.size(); ++f) {
            if (run.differs >> f & 1u) {
              w.signals.push_back(port + "." + fields[f]);
            }
          }
          w.in_flight_a = flight_a.at(c);
          w.in_flight_b = flight_b.at(c);
          pt.windows.push_back(std::move(w));
        }
      }
      window_open = true;
      window_end = run_end;
      if (c < report.first_divergence) {
        report.first_divergence = c;
        report.first_port = port;
      }
    }
  }

  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (sig[f].diverged_cycles == 0) continue;
    sig[f].signal = port + "." + fields[f];
    pt.signals.push_back(std::move(sig[f]));
  }
}

// Triage::analyze, with or without the whole-recording proof.
TriageReport triage_ports(const vcd::Trace& a, const vcd::Trace& b,
                          const std::vector<std::string>& ports,
                          bool prove_equal) {
  TriageReport report;
  const bool metrics = obs::metrics_enabled();
  const std::uint64_t total = std::max(a.max_time(), b.max_time()) + 1;
  const auto fa = Analyzer::resolve_ports(a, ports);
  const auto fb = Analyzer::resolve_ports(b, ports);
  const bool equal = prove_equal && a == b;
  for (std::size_t p = 0; p < ports.size(); ++p) {
    PortTriage pt;
    pt.port = ports[p];
    pt.total_cycles = total;
    pt.note = Analyzer::activity_note(a, fa[p], b, fb[p]);
    if (equal) {
      // Aligned on every cycle: no window, no transaction context needed.
      pt.aligned_cycles = total;
    } else {
      walk_port(a, fa[p], b, fb[p], pt, report);
    }
    if (metrics) {
      obs::counter("stba.triage_ports").inc();
      obs::counter("stba.triage_windows").add(pt.window_count);
      obs::counter("stba.triage_diverged_cycles").add(pt.diverged_cycles);
    }
    report.ports.push_back(std::move(pt));
  }
  if (metrics) obs::counter("stba.triages").inc();
  return report;
}

}  // namespace

TriageReport Triage::analyze(const vcd::Trace& a, const vcd::Trace& b,
                             const std::vector<std::string>& ports) {
  return triage_ports(a, b, ports, /*prove_equal=*/true);
}

TriageReport Triage::analyze_by_merge(const vcd::Trace& a,
                                      const vcd::Trace& b,
                                      const std::vector<std::string>& ports) {
  return triage_ports(a, b, ports, /*prove_equal=*/false);
}

std::string TriageReport::json(
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<std::pair<std::string, std::string>>& raw_sections)
    const {
  using crve::json::escape;
  using crve::json::number;
  std::string out;
  out += "{\n";
  out += "  \"build\": " + crve::build_info_json("  ") + ",\n";
  for (const auto& [key, value] : context) {
    out += "  \"" + escape(key) + "\": \"" + escape(value) + "\",\n";
  }
  out += std::string("  \"any_diverged\": ") +
         (any_diverged() ? "true" : "false") + ",\n";
  if (any_diverged()) {
    out += "  \"first_divergence\": " + std::to_string(first_divergence) +
           ",\n";
    out += "  \"first_port\": \"" + escape(first_port) + "\",\n";
  }
  out += "  \"ports\": [";
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const PortTriage& p = ports[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"port\": \"" + escape(p.port) + "\",\n";
    out += "      \"rate\": " + number(p.rate()) + ",\n";
    out += "      \"total_cycles\": " + std::to_string(p.total_cycles) + ",\n";
    out += "      \"aligned_cycles\": " + std::to_string(p.aligned_cycles) +
           ",\n";
    out += "      \"diverged_cycles\": " + std::to_string(p.diverged_cycles) +
           ",\n";
    if (!p.note.empty()) {
      out += "      \"note\": \"" + escape(p.note) + "\",\n";
    }
    out += "      \"window_count\": " + std::to_string(p.window_count) + ",\n";
    out += "      \"windows\": [";
    for (std::size_t w = 0; w < p.windows.size(); ++w) {
      const DivergenceWindow& win = p.windows[w];
      out += w == 0 ? "\n" : ",\n";
      out += "        {\"begin\": " + std::to_string(win.begin);
      out += ", \"end\": " + std::to_string(win.end);
      out += ", \"signals\": [";
      for (std::size_t s = 0; s < win.signals.size(); ++s) {
        if (s != 0) out += ", ";
        out += "\"" + escape(win.signals[s]) + "\"";
      }
      out += "],\n";
      render_cell(out, "in_flight_a", win.in_flight_a, "         ");
      out += ",\n";
      render_cell(out, "in_flight_b", win.in_flight_b, "         ");
      out += "}";
    }
    out += p.windows.empty() ? "]" : "\n      ]";
    out += ",\n";
    out += "      \"signals\": [";
    for (std::size_t s = 0; s < p.signals.size(); ++s) {
      const SignalDivergence& sd = p.signals[s];
      out += s == 0 ? "\n" : ",\n";
      out += "        {\"signal\": \"" + escape(sd.signal) + "\"";
      out += ", \"diverged_cycles\": " + std::to_string(sd.diverged_cycles);
      out += ", \"interval_count\": " + std::to_string(sd.interval_count);
      out += ", \"intervals\": [";
      for (std::size_t k = 0; k < sd.intervals.size(); ++k) {
        if (k != 0) out += ", ";
        out += "[" + std::to_string(sd.intervals[k].begin) + ", " +
               std::to_string(sd.intervals[k].end) + "]";
      }
      out += "]}";
    }
    out += p.signals.empty() ? "]\n" : "\n      ]\n";
    out += "    }";
  }
  out += ports.empty() ? "]" : "\n  ]";
  for (const auto& [key, value] : raw_sections) {
    out += ",\n  \"" + escape(key) + "\": " + value;
  }
  out += "\n}\n";
  return out;
}

std::string txn_flight_json(const TriageReport& report,
                            const obs::TxnTraceData& a,
                            const obs::TxnTraceData& b) {
  using crve::json::escape;
  // Artifact bounds, same philosophy as kMaxWindows: listed entries are
  // capped, the window loop order (report port order, then window order) is
  // deterministic, and every listed span is a pure function of the traced
  // traffic.
  constexpr std::size_t kMaxJoinWindows = 8;
  constexpr std::size_t kMaxSpansPerView = 8;

  auto render_view = [&](std::string& out, const char* key,
                         const obs::TxnTraceData& td, std::uint64_t cycle) {
    std::vector<const obs::TxnSpan*> live;
    for (const obs::TxnSpan& s : td.spans) {
      if (obs::txn_in_flight_at(s, cycle)) live.push_back(&s);
    }
    std::sort(live.begin(), live.end(),
              [](const obs::TxnSpan* x, const obs::TxnSpan* y) {
                if (x->issue != y->issue) return x->issue < y->issue;
                if (x->port != y->port) return x->port < y->port;
                if (x->src != y->src) return x->src < y->src;
                if (x->tid != y->tid) return x->tid < y->tid;
                return x->seq < y->seq;
              });
    out += std::string("\"") + key + "_in_flight\": " +
           std::to_string(live.size()) + ", \"" + key + "\": [";
    const std::size_t n = std::min(live.size(), kMaxSpansPerView);
    for (std::size_t i = 0; i < n; ++i) {
      const obs::TxnSpan& s = *live[i];
      if (i != 0) out += ",";
      out += "\n           {\"port\": \"" + escape(s.port) + "\", \"src\": " +
             std::to_string(s.src) + ", \"tid\": " + std::to_string(s.tid) +
             ", \"seq\": " + std::to_string(s.seq) + ", \"opc\": \"" +
             escape(s.opc) + "\", \"issue\": " + std::to_string(s.issue) +
             ", \"stage\": \"" + obs::txn_stage_at(s, cycle) + "\"}";
    }
    out += n == 0 ? "]" : "]";
  };

  std::string out = "{\n";
  out += "    \"windows\": [";
  std::size_t listed = 0;
  bool first = true;
  for (const PortTriage& p : report.ports) {
    for (const DivergenceWindow& w : p.windows) {
      if (listed >= kMaxJoinWindows) break;
      ++listed;
      out += first ? "\n" : ",\n";
      first = false;
      out += "      {\"port\": \"" + escape(p.port) + "\", \"begin\": " +
             std::to_string(w.begin) + ",\n       ";
      render_view(out, "a", a, w.begin);
      out += ",\n       ";
      render_view(out, "b", b, w.begin);
      out += "}";
    }
  }
  out += first ? "]" : "\n    ]";
  out += "\n  }";
  return out;
}

}  // namespace crve::stba

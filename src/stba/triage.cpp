#include "stba/triage.h"

#include <algorithm>

#include "common/build_info.h"
#include "common/json.h"
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

}  // namespace

InFlightCell InFlightCell::of(const CellView& cell) {
  InFlightCell ref;
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

TriageReport Triage::analyze(const vcd::Trace& a, const vcd::Trace& b,
                             const std::vector<std::string>& ports) {
  TriageReport report;
  Analyzer::compare(a, b, ports, nullptr, &report);
  return report;
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
    out += "]";
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

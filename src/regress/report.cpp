#include "regress/report.h"

#include <sstream>

#include "common/build_info.h"
#include "regress/runner.h"

namespace crve::regress {

namespace {

const char* bool_str(bool b) { return b ? "true" : "false"; }

// Stable lowercase view identifiers for machine consumption.
const char* view_str(verif::ModelKind m) {
  switch (m) {
    case verif::ModelKind::kRtl:
      return "rtl";
    case verif::ModelKind::kBca:
      return "bca";
    case verif::ModelKind::kBcaWrapped:
      return "bca_wrapped";
  }
  return "unknown";
}

// Embeds a pre-rendered multi-line JSON value (no trailing newline, inner
// lines at column 0) so it nests at depth `in` inside the enclosing object.
void write_embedded_json(std::ostream& os, const std::string& json,
                         const std::string& in) {
  for (char c : json) {
    os << c;
    if (c == '\n') os << in;
  }
}

// Per-port alignment detail for one pair, mirroring the crve_stba --json
// port entries so the drift gate reads both documents with one walker.
void write_ports(std::ostream& os, const stba::AlignmentReport& rep,
                 const std::string& in) {
  os << ", \"ports\": [";
  for (std::size_t i = 0; i < rep.ports.size(); ++i) {
    const stba::PortAlignment& p = rep.ports[i];
    os << (i == 0 ? "\n" : ",\n") << in << "{\"port\": \""
       << json_escape(p.port) << "\", \"rate\": " << json_number(p.rate())
       << ", \"aligned_cycles\": " << p.aligned_cycles
       << ", \"total_cycles\": " << p.total_cycles
       << ", \"diverged\": " << (p.diverged() ? "true" : "false");
    if (p.diverged()) {
      os << ", \"first_divergence\": " << p.first_divergence
         << ", \"diverged_signals\": [";
      for (std::size_t s = 0; s < p.diverged_signals.size(); ++s) {
        os << (s == 0 ? "" : ", ") << "\"" << json_escape(p.diverged_signals[s])
           << "\"";
      }
      os << "]";
    }
    if (!p.note.empty()) {
      os << ", \"note\": \"" << json_escape(p.note) << "\"";
    }
    os << ", \"cells_a\": " << p.cells_a << ", \"cells_b\": " << p.cells_b
       << ", \"cells_matching\": " << p.cells_matching << "}";
  }
  os << (rep.ports.empty() ? "]" : "\n" + in.substr(2) + "]");
}

// Writes one RegressionResult as a JSON object at the given indent depth.
// with_build prefixes the build-provenance stamp — set for top-level
// documents only, so the stamp appears once per artifact.
void write_result(std::ostream& os, const RegressionResult& r,
                  bool with_timing, const std::string& in,
                  bool with_build = false) {
  const std::string in1 = in + "  ";
  const std::string in2 = in1 + "  ";
  os << "{\n";
  if (with_build) {
    os << in1 << "\"build\": ";
    write_embedded_json(os, build_info_json(), in1);
    os << ",\n";
  }
  os << in1 << "\"config\": \"" << json_escape(r.config_name) << "\",\n";
  os << in1 << "\"rtl_passed\": " << bool_str(r.rtl_passed) << ",\n";
  os << in1 << "\"bca_passed\": " << bool_str(r.bca_passed) << ",\n";
  os << in1 << "\"coverage_match\": " << bool_str(r.coverage_match) << ",\n";
  os << in1 << "\"mean_coverage_rtl\": " << json_number(r.mean_coverage_rtl)
     << ",\n";
  os << in1 << "\"min_alignment\": " << json_number(r.min_alignment) << ",\n";
  os << in1 << "\"alignment_threshold\": "
     << json_number(r.alignment_threshold) << ",\n";
  os << in1 << "\"signed_off\": " << bool_str(r.signed_off) << ",\n";
  // Cache provenance: present exactly when pairs were replayed, carrying
  // the build stamp the replayed entries originated from. The baseline
  // differ treats a presence change here as a note, never as drift.
  if (r.cached_pairs > 0) {
    os << in1 << "\"cache\": {\n";
    os << in2 << "\"cached_pairs\": " << r.cached_pairs << ",\n";
    os << in2 << "\"build\": ";
    write_embedded_json(os, r.cache_build_json, in2);
    os << "\n" << in1 << "},\n";
  }
  if (with_timing) {
    os << in1 << "\"wall_ms\": " << json_number(r.wall_ms) << ",\n";
  }
  os << in1 << "\"runs\": [";
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const TestOutcome& o = r.outcomes[i];
    os << (i == 0 ? "\n" : ",\n") << in2 << "{\"test\": \""
       << json_escape(o.test) << "\", \"seed\": " << o.seed
       << ", \"view\": \"" << view_str(o.model) << "\""
       << ", \"passed\": " << bool_str(o.result.passed())
       << ", \"completed\": " << bool_str(o.result.completed)
       << ", \"cycles\": " << o.result.cycles
       << ", \"checker_violations\": " << o.result.checker_violations
       << ", \"scoreboard_errors\": " << o.result.scoreboard_errors
       << ", \"reference_mismatches\": " << o.result.reference_mismatches
       << ", \"coverage_percent\": " << json_number(o.result.coverage_percent)
       << ", \"coverage_digest\": " << json_hex(o.result.coverage_digest);
    // Evaluation counts are a kernel cost metric, not a semantic result:
    // they ride with the timing fields so the timing-free report is
    // byte-identical across --sim-kernel choices.
    if (with_timing) {
      os << ", \"evaluations\": " << o.result.evaluations
         << ", \"wall_ms\": " << json_number(o.wall_ms);
    }
    if (o.cached) os << ", \"cached\": true";
    os << "}";
  }
  os << (r.outcomes.empty() ? "]" : "\n" + in1 + "]") << ",\n";
  os << in1 << "\"alignments\": [";
  for (std::size_t i = 0; i < r.alignments.size(); ++i) {
    const AlignmentOutcome& a = r.alignments[i];
    os << (i == 0 ? "\n" : ",\n") << in2 << "{\"test\": \""
       << json_escape(a.test) << "\", \"seed\": " << a.seed
       << ", \"min_rate\": " << json_number(a.report.min_rate())
       << ", \"mean_rate\": " << json_number(a.report.mean_rate())
       << ", \"signed_off\": "
       << bool_str(a.report.signed_off(r.alignment_threshold));
    if (with_timing) os << ", \"wall_ms\": " << json_number(a.wall_ms);
    if (a.cached) os << ", \"cached\": true";
    write_ports(os, a.report, in2 + "  ");
    os << "}";
  }
  os << (r.alignments.empty() ? "]" : "\n" + in1 + "]");
  // Optional deterministic metrics section (stable metrics only; present
  // exactly when the campaign ran with metrics collection enabled, so
  // uninstrumented reports stay byte-identical to previous versions).
  if (!r.metrics_json.empty()) {
    os << ",\n" << in1 << "\"metrics\": ";
    write_embedded_json(os, r.metrics_json, in1);
  }
  // Optional transaction-latency section (RunPlan::txn_trace_out): the
  // stable merged span aggregate plus the dual-view delta join. Present
  // exactly when the campaign traced transactions, so untraced reports
  // stay byte-identical to previous versions.
  if (!r.txn.empty()) {
    os << ",\n" << in1 << "\"txn_latency\": {\n";
    os << in2 << "\"txn\": " << obs::txn_json(r.txn, false, in2) << ",\n";
    os << in2 << "\"delta\": " << obs::txn_delta_json(r.txn_delta, in2)
       << "\n";
    os << in1 << "}";
  }
  os << "\n" << in << "}";
}

}  // namespace

std::string RegressionResult::json(bool with_timing) const {
  std::ostringstream os;
  write_result(os, *this, with_timing, "", /*with_build=*/true);
  os << "\n";
  return os.str();
}

std::string MatrixResult::json(bool with_timing) const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"build\": ";
  write_embedded_json(os, build_info_json(), "  ");
  os << ",\n";
  os << "  \"all_signed_off\": " << bool_str(all_signed_off) << ",\n";
  if (with_timing) {
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"wall_ms\": " << json_number(wall_ms) << ",\n";
  }
  os << "  \"configs\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_result(os, results[i], with_timing, "    ");
  }
  os << (results.empty() ? "]" : "\n  ]");
  if (!metrics_json.empty()) {
    os << ",\n  \"metrics\": ";
    write_embedded_json(os, metrics_json, "  ");
  }
  if (!txn.empty()) {
    os << ",\n  \"txn_latency\": {\n";
    os << "    \"txn\": " << obs::txn_json(txn, false, "    ") << ",\n";
    os << "    \"delta\": " << obs::txn_delta_json(txn_delta, "    ") << "\n";
    os << "  }";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace crve::regress

#include "regress/job_spec.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "common/build_info.h"
#include "common/sha256.h"
#include "regress/config_file.h"
#include "regress/report.h"

namespace crve::regress {

namespace {

// Fault catalogue: name → member. Order is the canonical (sorted) order
// fault_names() emits, so the JobSpec hash is stable.
struct FaultEntry {
  const char* name;
  bool bca::Faults::* member;
};

const std::vector<FaultEntry>& fault_table() {
  static const std::vector<FaultEntry> table = {
      {"byte_enable_dropped", &bca::Faults::byte_enable_dropped},
      {"eop_one_cell_early", &bca::Faults::eop_one_cell_early},
      {"grant_during_lock", &bca::Faults::grant_during_lock},
      {"lru_stale_on_chunk", &bca::Faults::lru_stale_on_chunk},
      {"opcode_corrupt_on_busy", &bca::Faults::opcode_corrupt_on_busy},
      {"priority_register_ignored", &bca::Faults::priority_register_ignored},
      {"response_src_swap", &bca::Faults::response_src_swap},
      {"size_conv_endianness", &bca::Faults::size_conv_endianness},
  };
  return table;
}

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

verif::ModelKind view_from(const std::string& s) {
  if (s == "rtl") return verif::ModelKind::kRtl;
  if (s == "bca") return verif::ModelKind::kBca;
  if (s == "bca_wrapped") return verif::ModelKind::kBcaWrapped;
  throw std::runtime_error("pair payload: unknown view '" + s + "'");
}

using Kind = json::Value::Kind;

std::runtime_error bad(const char* key, const char* what) {
  return std::runtime_error(std::string("pair payload: '") + key + "' " +
                            what);
}

// Required-member accessors over parsed payloads: a missing or mistyped
// member is a schema mismatch the caller turns into a cache invalidation,
// not a crash.
const json::Value& member(const json::Value& v, const char* key, Kind kind) {
  const json::Value* m = v.find(key);
  if (!m) throw bad(key, "is missing");
  if (m->kind != kind) throw bad(key, "has the wrong type");
  return *m;
}

// An object holds exactly the `n` members its reader takes, so no member
// the encoder did not write (a misspelt optional one) goes unread.
void expect_members(const json::Value& v, std::size_t n, const char* what) {
  if (!v.is_object() || v.members.size() != n) {
    throw bad(what, "does not hold the members the encoder writes");
  }
}

// Exactly what json::hex writes: "0x" and lowercase hex digits without a
// leading zero, the whole string.
std::uint64_t u64_of(const json::Value& v, const char* key) {
  const std::string& s = member(v, key, Kind::kString).str;
  std::uint64_t n = 0;
  const char* end = s.data() + s.size();
  // Rendering the value back rejects what from_chars forgives: another
  // prefix, upper case, leading zeros, an out-of-range value.
  if (s.size() < 3 || std::from_chars(s.data() + 2, end, n, 16).ptr != end ||
      json::hex(n) != '"' + s + '"') {
    throw bad(key, "is not a hex literal");
  }
  return n;
}

bool bool_of(const json::Value& v, const char* key) {
  return member(v, key, Kind::kBool).boolean;
}

double num_of(const json::Value& v, const char* key) {
  return member(v, key, Kind::kNumber).num;
}

std::string str_of(const json::Value& v, const char* key) {
  return member(v, key, Kind::kString).str;
}

void write_run(std::ostream& os, const TestOutcome& o) {
  os << "    {\"test\": \"" << json_escape(o.test) << "\", \"seed\": "
     << json_hex(o.seed) << ", \"view\": \"" << view_str(o.model) << "\""
     << ", \"completed\": " << (o.result.completed ? "true" : "false")
     << ", \"cycles\": " << json_hex(o.result.cycles)
     << ", \"evaluations\": " << json_hex(o.result.evaluations)
     << ", \"checker_violations\": " << json_hex(o.result.checker_violations)
     << ", \"scoreboard_errors\": " << json_hex(o.result.scoreboard_errors)
     << ", \"reference_mismatches\": "
     << json_hex(o.result.reference_mismatches)
     << ", \"coverage_percent\": " << json_number(o.result.coverage_percent)
     << ", \"coverage_digest\": " << json_hex(o.result.coverage_digest)
     << ", \"wall_ms\": " << json_number(o.wall_ms) << "}";
}

TestOutcome read_run(const json::Value& v) {
  expect_members(v, 12, "runs");
  TestOutcome o;
  o.test = str_of(v, "test");
  o.seed = u64_of(v, "seed");
  o.model = view_from(str_of(v, "view"));
  o.result.completed = bool_of(v, "completed");
  o.result.cycles = u64_of(v, "cycles");
  o.result.evaluations = u64_of(v, "evaluations");
  o.result.checker_violations = u64_of(v, "checker_violations");
  o.result.scoreboard_errors = u64_of(v, "scoreboard_errors");
  o.result.reference_mismatches = u64_of(v, "reference_mismatches");
  o.result.coverage_percent = num_of(v, "coverage_percent");
  o.result.coverage_digest = u64_of(v, "coverage_digest");
  o.wall_ms = num_of(v, "wall_ms");
  return o;
}

}  // namespace

std::string JobSpec::canonical_json() const {
  std::ostringstream os;
  os << "{\"v\": " << version << ", \"test\": \"" << json_escape(test)
     << "\", \"seed\": " << json_hex(seed) << ", \"tx\": " << n_transactions
     << ", \"max_cycles\": " << json_hex(max_cycles)
     << ", \"alignment\": " << (run_alignment ? "true" : "false")
     << ", \"threshold\": " << json_number(alignment_threshold)
     << ", \"triage\": " << (run_triage ? "true" : "false")
     << ", \"triage_window\": " << json_hex(triage_window)
     << ", \"kernel\": \"" << json_escape(kernel) << "\", \"faults\": [";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << json_escape(faults[i]) << "\"";
  }
  os << "], \"build\": {\"git_hash\": \"" << json_escape(git_hash)
     << "\", \"compiler\": \"" << json_escape(compiler)
     << "\", \"build_type\": \"" << json_escape(build_type)
     << "\", \"sanitize\": " << (sanitize ? "true" : "false")
     << "}, \"config\": \"" << json_escape(config_text) << "\"}";
  return os.str();
}

std::string JobSpec::hash() const { return sha256_hex(canonical_json()); }

JobSpec job_spec_for(const RunPlan& plan, const verif::TestSpec& test,
                     std::uint64_t seed) {
  JobSpec s;
  s.config_text = format_config(plan.cfg);
  s.test = test.name;
  s.seed = seed;
  s.n_transactions =
      plan.n_transactions > 0 ? plan.n_transactions : test.n_transactions;
  s.max_cycles = plan.max_cycles;
  s.run_alignment = plan.run_alignment;
  s.alignment_threshold = plan.alignment_threshold;
  s.run_triage = plan.run_triage;
  s.triage_window = plan.triage_window;
  s.kernel =
      plan.kernel == sim::KernelKind::kInterp ? "interp" : "compiled";
  s.faults = fault_names(plan.faults);
  const BuildInfo& b = build_info();
  s.git_hash = b.git_hash;
  s.compiler = b.compiler;
  s.build_type = b.build_type;
  s.sanitize = b.sanitize;
  return s;
}

std::vector<std::string> fault_names(const bca::Faults& f) {
  std::vector<std::string> names;
  for (const FaultEntry& e : fault_table()) {
    if (f.*(e.member)) names.push_back(e.name);
  }
  return names;  // fault_table() is sorted by name
}

bool set_fault_by_name(bca::Faults& f, const std::string& name) {
  for (const FaultEntry& e : fault_table()) {
    if (name == e.name) {
      f.*(e.member) = true;
      return true;
    }
  }
  return false;
}

std::string format_job_specs(const std::vector<JobSpec>& specs) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"jobs\": [";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ") << specs[i].canonical_json();
  }
  os << (specs.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

std::string encode_pair_result(const PairResult& pr,
                               const std::string& spec_hash) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"spec_hash\": \"" << json_escape(spec_hash)
     << "\",\n  \"build\": {\"git_hash\": \"" << json_escape(pr.git_hash)
     << "\", \"compiler\": \"" << json_escape(pr.compiler)
     << "\", \"build_type\": \"" << json_escape(pr.build_type)
     << "\", \"sanitize\": " << (pr.sanitize ? "true" : "false")
     << "},\n  \"runs\": [\n";
  write_run(os, pr.rtl);
  os << ",\n";
  write_run(os, pr.bca);
  os << "\n  ]";
  if (pr.has_alignment) {
    const stba::AlignmentReport& rep = pr.alignment.report;
    os << ",\n  \"alignment\": {\"wall_ms\": "
       << json_number(pr.alignment.wall_ms) << ", \"ports\": [";
    for (std::size_t i = 0; i < rep.ports.size(); ++i) {
      const stba::PortAlignment& p = rep.ports[i];
      os << (i == 0 ? "\n" : ",\n") << "    {\"port\": \""
         << json_escape(p.port)
         << "\", \"total_cycles\": " << json_hex(p.total_cycles)
         << ", \"aligned_cycles\": " << json_hex(p.aligned_cycles)
         << ", \"first_divergence\": " << json_hex(p.first_divergence)
         << ", \"diverged_signals\": [";
      for (std::size_t s = 0; s < p.diverged_signals.size(); ++s) {
        os << (s == 0 ? "" : ", ") << "\""
           << json_escape(p.diverged_signals[s]) << "\"";
      }
      os << "], \"note\": \"" << json_escape(p.note) << "\", \"cells_a\": "
         << json_hex(p.cells_a) << ", \"cells_b\": " << json_hex(p.cells_b)
         << ", \"cells_matching\": " << json_hex(p.cells_matching) << "}";
    }
    os << (rep.ports.empty() ? "]" : "\n  ]") << "}";
  }
  os << "\n}\n";
  return os.str();
}

PairResult decode_pair_result(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (num_of(doc, "version") != 1.0) throw bad("version", "is not 1");
  const json::Value* al = doc.find("alignment");
  expect_members(doc, al ? 5 : 4, "payload");
  str_of(doc, "spec_hash");  // checked, not kept: the caller holds the key
  PairResult pr;
  const json::Value& b = member(doc, "build", Kind::kObject);
  expect_members(b, 4, "build");
  pr.git_hash = str_of(b, "git_hash");
  pr.compiler = str_of(b, "compiler");
  pr.build_type = str_of(b, "build_type");
  pr.sanitize = bool_of(b, "sanitize");
  const json::Value& runs = member(doc, "runs", Kind::kArray);
  if (runs.items.size() != 2) throw bad("runs", "does not hold two runs");
  pr.rtl = read_run(runs.items[0]);
  pr.bca = read_run(runs.items[1]);
  if (pr.rtl.model != verif::ModelKind::kRtl ||
      pr.bca.model != verif::ModelKind::kBca) {
    throw bad("runs", "is out of (rtl, bca) order");
  }
  if (al) {
    expect_members(*al, 2, "alignment");
    pr.has_alignment = true;
    pr.alignment.test = pr.rtl.test;
    pr.alignment.seed = pr.rtl.seed;
    pr.alignment.wall_ms = num_of(*al, "wall_ms");
    for (const json::Value& pv : member(*al, "ports", Kind::kArray).items) {
      expect_members(pv, 9, "ports");
      stba::PortAlignment p;
      p.port = str_of(pv, "port");
      p.total_cycles = u64_of(pv, "total_cycles");
      p.aligned_cycles = u64_of(pv, "aligned_cycles");
      p.first_divergence = u64_of(pv, "first_divergence");
      for (const json::Value& s :
           member(pv, "diverged_signals", Kind::kArray).items) {
        if (s.kind != Kind::kString) {
          throw bad("diverged_signals", "holds a non-string");
        }
        p.diverged_signals.push_back(s.str);
      }
      p.note = str_of(pv, "note");
      p.cells_a = u64_of(pv, "cells_a");
      p.cells_b = u64_of(pv, "cells_b");
      p.cells_matching = u64_of(pv, "cells_matching");
      pr.alignment.report.ports.push_back(std::move(p));
    }
  }
  return pr;
}

std::string pair_build_json(const PairResult& pr, const std::string& indent) {
  std::string out;
  out += "{\n";
  out += indent + "  \"git_hash\": \"" + json_escape(pr.git_hash) + "\",\n";
  out += indent + "  \"compiler\": \"" + json_escape(pr.compiler) + "\",\n";
  out +=
      indent + "  \"build_type\": \"" + json_escape(pr.build_type) + "\",\n";
  out += indent + "  \"sanitize\": " + (pr.sanitize ? "true" : "false") + "\n";
  out += indent + "}";
  return out;
}

}  // namespace crve::regress

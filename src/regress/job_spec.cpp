#include "regress/job_spec.h"

#include <cstdlib>
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

// Required-member accessors over parsed payloads: a missing member is a
// schema mismatch the caller turns into a cache invalidation, not a crash.
const json::Value& member(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  if (!m) {
    throw std::runtime_error(std::string("pair payload: missing '") + key +
                             "'");
  }
  return *m;
}

std::uint64_t u64_of(const json::Value& v, const char* key) {
  const json::Value& m = member(v, key);
  if (m.kind == json::Value::Kind::kString) {
    return std::strtoull(m.str.c_str(), nullptr, 16);
  }
  if (m.kind == json::Value::Kind::kNumber) {
    return static_cast<std::uint64_t>(m.num);
  }
  throw std::runtime_error(std::string("pair payload: '") + key +
                           "' is not a number");
}

bool bool_of(const json::Value& v, const char* key) {
  return member(v, key).boolean;
}

std::string str_of(const json::Value& v, const char* key) {
  return member(v, key).str;
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
  o.result.coverage_percent = member(v, "coverage_percent").num;
  o.result.coverage_digest = u64_of(v, "coverage_digest");
  o.wall_ms = v.number_or("wall_ms", 0.0);
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

bca::Faults faults_from_names(const std::vector<std::string>& names) {
  bca::Faults f;
  for (const std::string& n : names) {
    if (!set_fault_by_name(f, n)) {
      throw std::runtime_error("job spec: unknown fault '" + n + "'");
    }
  }
  return f;
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

std::vector<JobSpec> parse_job_specs(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (static_cast<int>(doc.number_or("version", 0.0)) != 1) {
    throw std::runtime_error("job specs: unsupported version");
  }
  const json::Value& jobs = member(doc, "jobs");
  if (!jobs.is_array()) {
    throw std::runtime_error("job specs: 'jobs' is not an array");
  }
  std::vector<JobSpec> out;
  out.reserve(jobs.items.size());
  for (const json::Value& j : jobs.items) {
    JobSpec s;
    s.version = static_cast<int>(member(j, "v").num);
    s.test = str_of(j, "test");
    s.seed = u64_of(j, "seed");
    s.n_transactions = static_cast<int>(member(j, "tx").num);
    s.max_cycles = u64_of(j, "max_cycles");
    s.run_alignment = bool_of(j, "alignment");
    s.alignment_threshold = member(j, "threshold").num;
    s.run_triage = bool_of(j, "triage");
    s.triage_window = u64_of(j, "triage_window");
    s.kernel = j.string_or("kernel", "compiled");
    const json::Value& faults = member(j, "faults");
    for (const json::Value& f : faults.items) s.faults.push_back(f.str);
    const json::Value& b = member(j, "build");
    s.git_hash = str_of(b, "git_hash");
    s.compiler = str_of(b, "compiler");
    s.build_type = str_of(b, "build_type");
    s.sanitize = bool_of(b, "sanitize");
    s.config_text = str_of(j, "config");
    out.push_back(std::move(s));
  }
  return out;
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
  if (static_cast<int>(doc.number_or("version", 0.0)) != 1) {
    throw std::runtime_error("pair payload: unsupported version");
  }
  PairResult pr;
  const json::Value& b = member(doc, "build");
  pr.git_hash = str_of(b, "git_hash");
  pr.compiler = str_of(b, "compiler");
  pr.build_type = str_of(b, "build_type");
  pr.sanitize = bool_of(b, "sanitize");
  const json::Value& runs = member(doc, "runs");
  if (!runs.is_array() || runs.items.size() != 2) {
    throw std::runtime_error("pair payload: expected exactly two runs");
  }
  pr.rtl = read_run(runs.items[0]);
  pr.bca = read_run(runs.items[1]);
  if (pr.rtl.model != verif::ModelKind::kRtl ||
      pr.bca.model != verif::ModelKind::kBca) {
    throw std::runtime_error("pair payload: runs out of (rtl, bca) order");
  }
  const json::Value* al = doc.find("alignment");
  if (al) {
    pr.has_alignment = true;
    pr.alignment.test = pr.rtl.test;
    pr.alignment.seed = pr.rtl.seed;
    pr.alignment.wall_ms = al->number_or("wall_ms", 0.0);
    const json::Value& ports = member(*al, "ports");
    for (const json::Value& pv : ports.items) {
      stba::PortAlignment p;
      p.port = str_of(pv, "port");
      p.total_cycles = u64_of(pv, "total_cycles");
      p.aligned_cycles = u64_of(pv, "aligned_cycles");
      p.first_divergence = u64_of(pv, "first_divergence");
      const json::Value& sigs = member(pv, "diverged_signals");
      for (const json::Value& s : sigs.items) {
        p.diverged_signals.push_back(s.str);
      }
      p.note = pv.string_or("note", "");
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

std::string format_worker_results(
    const std::vector<std::pair<std::string, std::string>>& hash_payloads) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"results\": [";
  for (std::size_t i = 0; i < hash_payloads.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ") << "{\"hash\": \""
       << json_escape(hash_payloads[i].first) << "\", \"payload\": \""
       << json_escape(hash_payloads[i].second) << "\"}";
  }
  os << (hash_payloads.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

std::vector<std::pair<std::string, std::string>> parse_worker_results(
    const std::string& text) {
  const json::Value doc = json::parse(text);
  if (static_cast<int>(doc.number_or("version", 0.0)) != 1) {
    throw std::runtime_error("worker results: unsupported version");
  }
  const json::Value& results = member(doc, "results");
  if (!results.is_array()) {
    throw std::runtime_error("worker results: 'results' is not an array");
  }
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(results.items.size());
  for (const json::Value& r : results.items) {
    out.emplace_back(str_of(r, "hash"), str_of(r, "payload"));
  }
  return out;
}

}  // namespace crve::regress

#include "lint/lint.h"

#include <algorithm>

namespace crve::lint {

std::string to_string(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarn:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const std::vector<Rule>& rule_catalogue() {
  // Sorted by id. IDs are append-only: a retired rule keeps its number.
  static const std::vector<Rule> kRules = {
      {"CRVE001", Severity::kError, "config line is not key=value"},
      {"CRVE002", Severity::kError, "unknown configuration key"},
      {"CRVE003", Severity::kWarn, "duplicate key shadows an earlier value"},
      {"CRVE004", Severity::kError, "malformed integer value"},
      {"CRVE005", Severity::kError, "unknown enum value"},
      {"CRVE010", Severity::kError, "n_initiators outside the 1..32 limit"},
      {"CRVE011", Severity::kError, "n_targets outside the 1..32 limit"},
      {"CRVE012", Severity::kError,
       "bus_bytes not a power of two in 1..32 (8..256 bits)"},
      {"CRVE013", Severity::kError,
       "latency arbitration without a latency_deadline list"},
      {"CRVE014", Severity::kError,
       "per-initiator list length differs from n_initiators"},
      {"CRVE015", Severity::kError,
       "bandwidth arbitration without quotas or with window < 1"},
      {"CRVE016", Severity::kError,
       "programmable arbitration without programming_port=1"},
      {"CRVE017", Severity::kError,
       "partial crossbar xbar_group length differs from n_targets"},
      {"CRVE018", Severity::kError, "xbar_group id outside 0..n_targets-1"},
      {"CRVE019", Severity::kWarn,
       "empty xbar group id inside the used range"},
      {"CRVE020", Severity::kNote,
       "key has no effect under this arch/arb and is ignored"},
      {"CRVE021", Severity::kWarn, "non-positive latency deadline"},
      {"CRVE030", Severity::kError,
       "duplicate configuration name across the directory"},
      {"CRVE031", Severity::kNote, "directory contains no .cfg files"},
      {"CRVE040", Severity::kError,
       "duplicate (test, seed) pair in the campaign plan"},
      {"CRVE041", Severity::kError,
       "alignment threshold outside (0, 1]"},
      {"CRVE042", Severity::kError, "campaign has no tests or no seeds"},
      {"CRVE050", Severity::kError,
       "unordered container in a deterministic-output module"},
      {"CRVE051", Severity::kError,
       "non-deterministic source (rand/random_device/time) outside "
       "common/rng.h"},
      {"CRVE052", Severity::kError,
       "raw std::cout/std::cerr outside a main.cpp"},
      {"CRVE053", Severity::kWarn, "crve-lint suppression matches nothing"},
      {"CRVE060", Severity::kWarn,
       "sanitizer-instrumented build probing a campaign cache with "
       "uninstrumented entries"},
      {"CRVE061", Severity::kWarn,
       "duplicate literal process name in add_comb/add_clocked"},
      {"CRVE062", Severity::kWarn,
       "duplicate literal observability name in counter/gauge/histogram/"
       "CRVE_SPAN/SpanGuard"},
      {"CRVE100", Severity::kWarn,
       "signal is read but never written (constant after elaboration)"},
      {"CRVE101", Severity::kWarn,
       "signal is written by a process but read by none (dead logic)"},
      {"CRVE102", Severity::kError,
       "multiple combinational processes drive the same signal"},
      {"CRVE103", Severity::kWarn,
       "combinational process writes signals but has no visible inputs "
       "(no reads, StateTag or after edges): never re-evaluated"},
      {"CRVE104", Severity::kWarn,
       "data-dependent read observed post-settle but missing from "
       "CombOpts::reads (under-declaration)"},
      {"CRVE105", Severity::kNote,
       "declared CombOpts read never observed in either elaboration "
       "evaluation (possible over-declaration)"},
      {"CRVE107", Severity::kNote,
       "schedule depth or signal fanout exceeds the report threshold"},
      {"CRVE108", Severity::kWarn,
       "unreachable process: no reads, writes, state or ordering edges"},
      {"CRVE110", Severity::kError,
       "environment signal present in one view but missing from the other"},
  };
  return kRules;
}

const Rule* find_rule(const std::string& id) {
  const auto& rules = rule_catalogue();
  const auto it = std::lower_bound(
      rules.begin(), rules.end(), id,
      [](const Rule& r, const std::string& key) { return key > r.id; });
  if (it != rules.end() && id == it->id) return &*it;
  return nullptr;
}

std::string Finding::text() const {
  std::string out = file;
  if (line > 0) out += ":" + std::to_string(line);
  out += ": " + to_string(severity) + "[" + rule_id + "]: " + message;
  return out;
}

void Report::add(const std::string& rule_id, const std::string& file,
                 int line, const std::string& message) {
  const Rule* rule = find_rule(rule_id);
  Finding f;
  f.rule_id = rule_id;
  f.severity = rule ? rule->severity : Severity::kError;
  f.file = file;
  f.line = line;
  f.message = message;
  findings.push_back(std::move(f));
}

int Report::count(Severity s) const {
  int n = 0;
  for (const auto& f : findings) n += f.severity == s ? 1 : 0;
  return n;
}

int Report::exit_code(bool werror) const {
  if (errors() > 0) return 2;
  if (warnings() > 0) return werror ? 2 : 1;
  return 0;
}

void Report::merge(Report&& other) {
  findings.insert(findings.end(),
                  std::make_move_iterator(other.findings.begin()),
                  std::make_move_iterator(other.findings.end()));
  other.findings.clear();
}

void Report::sort() {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     if (a.rule_id != b.rule_id) return a.rule_id < b.rule_id;
                     return a.message < b.message;
                   });
}

}  // namespace crve::lint

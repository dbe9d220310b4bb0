// crve_lint — static analysis for node configurations, campaign plans and
// the determinism invariants of the source tree.
//
// The paper's regression tool assumes every configuration it loads is legal
// ("it's sufficient to indicate the directory to which the tool has to
// point"); parse_config only rejects malformed syntax. This subsystem is
// the shift-left complement: a rule engine with stable rule IDs (CRVE0xx),
// three severities and three output formats (text, JSON, SARIF 2.1.0) that
// catches semantically broken configs and non-deterministic code paths
// *before* a multi-hour campaign runs.
//
// Three rule families (full catalogue in DESIGN.md §12 and §17):
//   * config/campaign rules — paper port/width limits, arbitration and
//     architecture coupling (latency ⇒ deadlines, bandwidth ⇒ quotas,
//     prog ⇒ programming port, partial ⇒ xbar groups), unknown/duplicate
//     keys, duplicate names across a directory, campaign-plan sanity;
//   * source determinism rules — a token-level scanner enforcing the
//     invariants the byte-identical report guarantee depends on: no
//     unordered-container iteration feeding report/baseline/html/metrics
//     output, no rand()/std::random_device/time(nullptr) outside
//     common/rng.h, no raw std::cout/std::cerr outside main.cpp files.
//     Findings are suppressed inline with `// crve-lint: allow(CRVE0xx)`.
//   * design rules (CRVE100..110, design_rules.cpp) — whole-design
//     structural analysis over the elaborated sim::DesignGraph: undriven /
//     dead signals, multiple combinational drivers, stale-read hazards,
//     read-set declaration drift, dynamic opt-outs that look static,
//     unreachable processes, schedule-depth/fanout hotspots and the
//     cross-view environment-signal comparison. The per-config driver that
//     elaborates testbenches lives one layer up in design_lint.h.
//
// Exit-code contract (crve_lint CLI and Report::exit_code): 0 = clean or
// notes only, 1 = warnings, 2 = errors; --werror promotes warnings (and
// only warnings — notes never escalate, in any renderer).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace crve::sim {
struct DesignGraph;
}

namespace crve::lint {

enum class Severity : std::uint8_t { kNote = 0, kWarn = 1, kError = 2 };

std::string to_string(Severity s);

// One catalogue entry. IDs are stable across releases: renumbering would
// invalidate stored SARIF baselines and inline suppressions.
struct Rule {
  const char* id;       // "CRVE0xx"
  Severity severity;    // default severity of findings under this rule
  const char* summary;  // one line; SARIF shortDescription
};

// The full rule catalogue, sorted by id.
const std::vector<Rule>& rule_catalogue();

// Catalogue lookup; nullptr for an unknown id.
const Rule* find_rule(const std::string& id);

struct Finding {
  std::string rule_id;
  Severity severity = Severity::kError;
  std::string file;  // path, or a pseudo-origin like "<plan>"
  int line = 0;      // 1-based; 0 = whole-file / whole-plan finding
  std::string message;

  // "file:line: error[CRVE013]: message" (line omitted when 0).
  std::string text() const;
};

struct Report {
  std::vector<Finding> findings;

  // Appends a finding under `rule_id` with the rule's default severity.
  void add(const std::string& rule_id, const std::string& file, int line,
           const std::string& message);
  int count(Severity s) const;
  int errors() const { return count(Severity::kError); }
  int warnings() const { return count(Severity::kWarn); }

  // 0 = clean or notes only, 1 = warnings present, 2 = errors present.
  // werror promotes warnings to the error exit code.
  int exit_code(bool werror = false) const;

  void merge(Report&& other);
  // Deterministic ordering: (file, line, rule, message).
  void sort();
};

// --- Config / campaign rules (config_rules.cpp) ---------------------------
// Built into crve_design_lint, next to the .cfg grammar they read through.

// Lints one configuration text without throwing: every problem
// regress::scan_config finds (malformed lines, unknown/duplicate keys, bad
// integers, bad enums) followed by the semantic rules over whatever parsed.
// `origin` tags every finding.
Report lint_config_text(const std::string& text, const std::string& origin);
Report lint_config_file(const std::string& path);

// Lints every regress::config_files(dir) entry plus the cross-file rules
// (duplicate `name`). A directory that cannot be listed is a CRVE001 error.
Report lint_config_dir(const std::string& dir);

// What crve_regress is about to run: the (test, seed) matrix and the
// sign-off threshold. Kept free of regress types so lint stays below
// regress in the dependency order.
struct CampaignSpec {
  std::vector<std::string> tests;
  std::vector<std::uint64_t> seeds;
  double alignment_threshold = 0.99;
};

Report lint_campaign(const CampaignSpec& spec,
                     const std::string& origin = "<plan>");

// CRVE060: a sanitizer-instrumented build probing a campaign cache whose
// entries came from an uninstrumented build. Those entries can never hit
// (the build flavour is part of the job hash), so the cache silently
// re-runs everything — and a hand-copied or downgraded cache replaying
// them would bypass exactly the checks the instrumented build exists for.
// Reads <cache_dir>/index.json tolerantly: a missing, empty or corrupt
// index is clean (the cache module reconciles its own corruption).
Report lint_cache_provenance(const std::string& cache_dir,
                             bool build_sanitized,
                             const std::string& origin = "<cache>");

// --- Source determinism rules (source_rules.cpp) --------------------------

// Token-level scan of one C++ source text: comments, string/char literals
// (including raw strings) are stripped before matching, and `// crve-lint:
// allow(CRVE0xx[, ...])` comments suppress findings on their own line (or,
// for comment-only lines, the next line). `path` selects the per-file
// exemptions (main.cpp, common/rng.h, deterministic-output modules).
//
// CRVE061 additionally scans the raw text for add_comb("x")/add_clocked("x")
// call sites whose name argument is a plain string literal and flags
// within-file duplicates: the kernel addresses processes by name (`after`
// edges, cycle diagnostics) and throws on collision at elaboration, so the
// lint surfaces the mistake before a simulation ever runs. Names built with
// a computed suffix ("x" + std::to_string(i)) are skipped.
//
// CRVE062 applies the same raw-text scan to the observability name
// registries — counter("x"), gauge("x"), histogram("x", v), CRVE_SPAN("x")
// and the named-guard form SpanGuard var("x") — where a duplicated literal
// does NOT throw: both sites
// silently merge into one metric series or span name, which is usually a
// copy-paste and never diagnosable from the output. Within-file duplicates
// are flagged here; lint_source_tree extends the accounting across files.
// An intentional shared name is suppressed at its site with `crve-lint:
// allow(CRVE062)`, which removes the site from both scopes; because file
// scope cannot see cross-file duplication, a CRVE062 suppression always
// counts as used and is never flagged by CRVE053.
Report lint_source_text(const std::string& text, const std::string& path);
Report lint_source_file(const std::string& path);

// Recursively lints every .h/.hpp/.cpp/.cc/.cxx under `dir`, skipping
// hidden directories and build trees; paths are visited in sorted order.
// Also the cross-file half of CRVE062: observability names surviving each
// file's scan are checked for collisions across the whole tree.
Report lint_source_tree(const std::string& dir);

// --- Design rules (design_rules.cpp) --------------------------------------

// Report thresholds for the schedule-shape rule (CRVE107). The full numbers
// always land in the design summary artifact; the rule only *flags* shapes
// beyond these bounds.
struct DesignRuleOptions {
  // Flag when the rank schedule is deeper than this many levels.
  std::size_t max_rank_depth = 16;
  // Flag a signal whose static combinational fanout exceeds this.
  std::size_t max_fanout = 64;
};

// CRVE100..108 over one elaborated view. `origin` tags every finding (the
// .cfg path or a pseudo-origin); `view` names the elaborated model ("RTL",
// "BCA") inside messages.
Report lint_design_graph(const sim::DesignGraph& g, const std::string& origin,
                         const std::string& view,
                         const DesignRuleOptions& opts = {});

// CRVE110: environment-side (tb.*) signals present in one view's graph but
// absent from the other, in both directions. DUT-internal names legitimately
// differ across views; the shared environment may not.
Report lint_design_views(const sim::DesignGraph& a, const std::string& view_a,
                         const sim::DesignGraph& b, const std::string& view_b,
                         const std::string& origin);

// --- Renderers (render.cpp) -----------------------------------------------

// One line per finding plus a summary line.
std::string render_text(const Report& report);

// {"build": ..., "summary": ..., "findings": [...]}. `werror` must match the
// flag passed to Report::exit_code so the embedded "exit_code" field agrees
// with the process exit status.
std::string render_json(const Report& report, bool werror = false);

// SARIF 2.1.0 with the full rule catalogue as tool.driver.rules, suitable
// for GitHub code scanning upload.
std::string render_sarif(const Report& report);

// The catalogue as "CRVE0xx  severity  summary" lines (crve_lint --rules).
std::string render_rules();

}  // namespace crve::lint

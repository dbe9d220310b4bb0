// Design-lint driver: elaborate configurations, lint the graphs.
//
// The rule half of the design family (design_rules.cpp) is a pure function
// over sim::DesignGraph and lives in crve_lint. This driver is the half that
// *produces* those graphs: for each node configuration it builds the full
// common verification environment (verif::Testbench) around the RTL view and
// the BCA view, initializes each — no simulation, elaboration only — exports
// the design graphs, runs CRVE100..108 per view plus the CRVE110 cross-view
// comparison, and collects a per-config design summary for the artifact and
// the dashboard's "Design health" panel. Linking verif (and regress, for the
// .cfg parser) puts it above crve_lint in the dependency order, which is why
// it is a separate library (crve_design_lint) linked by the CLIs only.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "stbus/config.h"

namespace crve::lint {

// Elaboration-time shape of one (config, view) pair, for the design summary
// artifact and the dashboard panel. Everything here is deterministic: the
// graph is a pure function of the configuration and the (fixed) elaboration
// seed, so the summary is byte-identical across runs and job counts.
struct DesignSummary {
  std::string config;  // NodeConfig::name
  std::string origin;  // .cfg path, or a pseudo-origin like "<design>"
  std::string view;    // "RTL" / "BCA"
  std::size_t signals = 0;
  std::size_t comb_processes = 0;
  std::size_t clocked_processes = 0;
  std::size_t ranks = 0;  // schedule depth == combinational critical path
  std::size_t max_fanout = 0;
  std::string max_fanout_signal;  // first signal reaching max_fanout
  int errors = 0;    // design findings against this (config, view)
  int warnings = 0;
  int notes = 0;
};

struct DesignLintResult {
  Report report;
  std::vector<DesignSummary> summaries;  // config order, RTL then BCA
};

// Lints one .cfg file: parse, elaborate both views, run the per-view and
// cross-view design rules. A config that fails to parse or elaborate
// produces a CRVE-less error finding under the config-rule family instead
// of throwing (the config linter will have reported the details).
DesignLintResult lint_design_file(const std::string& cfg_path,
                                  const DesignRuleOptions& opts = {});

// Lints every regress::config_files(dir) entry, concatenating reports and
// summaries. A directory that cannot be listed is a CRVE001 error.
DesignLintResult lint_design_dir(const std::string& dir,
                                 const DesignRuleOptions& opts = {});

// Lints an already-parsed configuration (no file involved).
DesignLintResult lint_design_config(const stbus::NodeConfig& cfg,
                                    const std::string& origin,
                                    const DesignRuleOptions& opts = {});

// Deliberately defective elaboration for the CI negative check and the
// crve_regress gate tests (`--design-selftest`): a small context with two
// combinational drivers of one signal and an undriven read, guaranteed to
// produce a CRVE102 error (exit code 2) plus a CRVE100 warning. Exercises
// graph export, the rules and the exit-code contract end to end without
// needing a shippable-but-broken model in the tree.
DesignLintResult lint_design_selftest();

// The summaries as a pretty JSON document ({"build": ..., "configs": [...]}),
// the per-config design summary artifact crve_regress writes next to
// report.json.
std::string design_summary_json(const std::vector<DesignSummary>& summaries);

}  // namespace crve::lint

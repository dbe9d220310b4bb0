#include "lint/design_lint.h"

#include <algorithm>
#include <stdexcept>

#include "common/build_info.h"
#include "common/json.h"
#include "regress/config_file.h"
#include "sim/design_graph.h"
#include "verif/testbench.h"

namespace crve::lint {

namespace {

// Minimal elaboration spec: default random profiles, one transaction (never
// driven — nothing steps), and an empty programming schedule when the
// configuration has a programming port, so the ProgInitiator exists and
// drives the prog pins idle exactly like a real campaign.
verif::TestSpec elaboration_spec(const stbus::NodeConfig& cfg) {
  verif::TestSpec spec;
  spec.name = "design_lint";
  spec.description = "elaboration-only design analysis";
  spec.n_transactions = 1;
  if (cfg.programming_port) {
    spec.prog = [](const stbus::NodeConfig&) {
      return std::vector<verif::ProgOp>{};
    };
  }
  return spec;
}

sim::DesignGraph elaborate_view(const stbus::NodeConfig& cfg,
                                verif::ModelKind model) {
  verif::TestbenchOptions opts;
  opts.model = model;
  opts.kernel = sim::KernelKind::kCompiled;
  opts.seed = 1;
  verif::Testbench tb(cfg, elaboration_spec(cfg), opts);
  return tb.ctx().export_design_graph();
}

DesignSummary summarize(const stbus::NodeConfig& cfg,
                        const std::string& origin, const std::string& view,
                        const sim::DesignGraph& g, const Report& rep) {
  DesignSummary s;
  s.config = cfg.name;
  s.origin = origin;
  s.view = view;
  s.signals = g.signals.size();
  s.comb_processes = g.n_comb;
  s.clocked_processes = g.n_clocked();
  s.ranks = g.n_ranks;
  // Combinational fanout per signal, the same count CRVE107 flags.
  std::vector<std::size_t> fanout(g.signals.size(), 0);
  for (std::size_t pi = 0; pi < g.n_comb; ++pi) {
    const auto& p = g.procs[pi];
    std::vector<int> eff = p.reads;
    eff.insert(eff.end(), p.declared_reads.begin(), p.declared_reads.end());
    std::sort(eff.begin(), eff.end());
    eff.erase(std::unique(eff.begin(), eff.end()), eff.end());
    for (const int sig : eff) ++fanout[static_cast<std::size_t>(sig)];
  }
  for (std::size_t i = 0; i < fanout.size(); ++i) {
    if (fanout[i] > s.max_fanout) {
      s.max_fanout = fanout[i];
      s.max_fanout_signal = g.signals[i].name;
    }
  }
  s.errors = rep.errors();
  s.warnings = rep.warnings();
  s.notes = rep.count(Severity::kNote);
  return s;
}

}  // namespace

DesignLintResult lint_design_config(const stbus::NodeConfig& cfg,
                                    const std::string& origin,
                                    const DesignRuleOptions& opts) {
  DesignLintResult res;
  struct View {
    verif::ModelKind model;
    const char* name;
  };
  // The wrapped view is the BCA model behind relays — same graph plus the
  // wrapper plumbing — so the per-config pass elaborates the two models the
  // campaign actually signs off against each other.
  const View views[] = {{verif::ModelKind::kRtl, "RTL"},
                        {verif::ModelKind::kBca, "BCA"}};
  std::vector<sim::DesignGraph> graphs;
  for (const View& v : views) {
    sim::DesignGraph g;
    try {
      g = elaborate_view(cfg, v.model);
    } catch (const std::exception& e) {
      // An elaboration failure (e.g. a combinational cycle) is itself a
      // design error; surface it under the schedule-shape rule's id-space
      // with error severity via a direct finding.
      Finding f;
      f.rule_id = "CRVE107";
      f.severity = Severity::kError;
      f.file = origin;
      f.line = 0;
      f.message = "view " + std::string(v.name) +
                  ": elaboration failed: " + e.what();
      res.report.findings.push_back(std::move(f));
      graphs.emplace_back();
      continue;
    }
    Report vrep = lint_design_graph(g, origin, v.name, opts);
    res.summaries.push_back(summarize(cfg, origin, v.name, g, vrep));
    res.report.merge(std::move(vrep));
    graphs.push_back(std::move(g));
  }
  if (graphs.size() == 2 && !graphs[0].signals.empty() &&
      !graphs[1].signals.empty()) {
    res.report.merge(lint_design_views(graphs[0], views[0].name, graphs[1],
                                       views[1].name, origin));
  }
  return res;
}

DesignLintResult lint_design_file(const std::string& cfg_path,
                                  const DesignRuleOptions& opts) {
  stbus::NodeConfig cfg;
  try {
    cfg = regress::parse_config_file(cfg_path);
  } catch (const std::exception& e) {
    // The config rule family owns parse diagnostics; here the parse failure
    // only has to make the design pass fail loudly.
    DesignLintResult res;
    Finding f;
    f.rule_id = "CRVE001";
    f.severity = Severity::kError;
    f.file = cfg_path;
    f.line = 0;
    f.message = std::string("cannot elaborate: ") + e.what();
    res.report.findings.push_back(std::move(f));
    return res;
  }
  return lint_design_config(cfg, cfg_path, opts);
}

DesignLintResult lint_design_dir(const std::string& dir,
                                 const DesignRuleOptions& opts) {
  DesignLintResult res;
  std::vector<std::string> files;
  try {
    files = regress::config_files(dir);
  } catch (const std::invalid_argument& e) {
    res.report.add("CRVE001", dir, 0, e.what());
    return res;
  }
  for (const auto& f : files) {
    DesignLintResult one = lint_design_file(f, opts);
    res.report.merge(std::move(one.report));
    res.summaries.insert(res.summaries.end(),
                         std::make_move_iterator(one.summaries.begin()),
                         std::make_move_iterator(one.summaries.end()));
  }
  return res;
}

DesignLintResult lint_design_selftest() {
  sim::Context ctx;
  sim::SignalBool undriven(ctx, "selftest.undriven");
  sim::SignalBool contested(ctx, "selftest.contested");
  sim::SignalBool out(ctx, "selftest.out");
  ctx.add_comb("selftest.reader",
               [&] { out.write(undriven.read()); });
  ctx.add_comb("selftest.driver_a",
               [&] { contested.write(undriven.read()); });
  ctx.add_comb("selftest.driver_b",
               [&] { contested.write(!undriven.read()); });
  // A clocked reader keeps `contested`/`out` out of the dead-logic rule so
  // the selftest isolates exactly CRVE102 (error) and CRVE100 (warn).
  sim::ClockedOpts observer;
  observer.reads = {&contested, &out};
  ctx.add_clocked("selftest.observer", [] {}, observer);

  const sim::DesignGraph g = ctx.export_design_graph();
  DesignLintResult res;
  res.report = lint_design_graph(g, "<design-selftest>", "selftest");
  return res;
}

std::string design_summary_json(const std::vector<DesignSummary>& summaries) {
  std::string out = "{\n";
  out += "  \"build\": " + build_info_json("  ") + ",\n";
  out += "  \"configs\": [";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const DesignSummary& s = summaries[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"config\": \"" + json::escape(s.config) + "\", ";
    out += "\"file\": \"" + json::escape(s.origin) + "\", ";
    out += "\"view\": \"" + json::escape(s.view) + "\", ";
    out += "\"signals\": " + std::to_string(s.signals) + ", ";
    out += "\"comb_processes\": " + std::to_string(s.comb_processes) + ", ";
    out += "\"clocked_processes\": " + std::to_string(s.clocked_processes) +
           ", ";
    out += "\"ranks\": " + std::to_string(s.ranks) + ", ";
    out += "\"max_fanout\": " + std::to_string(s.max_fanout) + ", ";
    out += "\"max_fanout_signal\": \"" + json::escape(s.max_fanout_signal) +
           "\", ";
    out += "\"findings\": {\"errors\": " + std::to_string(s.errors) +
           ", \"warnings\": " + std::to_string(s.warnings) +
           ", \"notes\": " + std::to_string(s.notes) + "}}";
  }
  out += summaries.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace crve::lint

// Design rule family (CRVE100..CRVE110) and the elaboration driver
// (DESIGN.md §17): every rule gets a minimal triggering design plus a
// near-miss that must stay clean, the graph export's terminal contract is
// pinned, and the shipped configurations are held to a zero-warning bar.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.h"
#include "lint/design_lint.h"
#include "lint/lint.h"
#include "sim/context.h"
#include "sim/design_graph.h"

namespace crve::lint {
namespace {

bool has_rule(const Report& r, const std::string& id) {
  for (const auto& f : r.findings) {
    if (f.rule_id == id) return true;
  }
  return false;
}

int count_rule(const Report& r, const std::string& id) {
  int n = 0;
  for (const auto& f : r.findings) n += f.rule_id == id;
  return n;
}

// First finding under `id`; the tests always check has_rule first.
const Finding& first(const Report& r, const std::string& id) {
  for (const auto& f : r.findings) {
    if (f.rule_id == id) return f;
  }
  static const Finding none;
  return none;
}

Report lint(sim::Context& ctx, const DesignRuleOptions& opts = {}) {
  const auto g = ctx.export_design_graph();
  return lint_design_graph(g, "<test>", "T", opts);
}

// --- export contract -------------------------------------------------------

TEST(DesignGraphExport, FreezesStructureAndConstructionWrites) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool b(ctx, "b");
  sim::SignalBool c(ctx, "c");
  a.write(true);  // construction strap: a is driven without any process
  ctx.add_comb("p1", [&] { b.write(a.read()); });
  ctx.add_comb("p2", [&] { c.write(b.read()); });
  sim::ClockedOpts obs;
  obs.reads = {&c};
  ctx.add_clocked("clk_obs", [&] { (void)c.read(); }, std::move(obs));

  const auto g = ctx.export_design_graph();
  EXPECT_EQ(g.signals.size(), 3u);
  EXPECT_EQ(g.n_comb, 2u);
  EXPECT_EQ(g.n_clocked(), 1u);
  EXPECT_EQ(g.n_ranks, 2u);  // p1 then p2: a chain levelizes to two ranks
  bool found_a = false;
  for (const auto& s : g.signals) {
    if (s.name == "a") {
      found_a = true;
      EXPECT_TRUE(s.construction_written);
    } else {
      EXPECT_FALSE(s.construction_written) << s.name;
    }
  }
  EXPECT_TRUE(found_a);
  // Ranks travel with the static comb processes; clocked processes carry -1.
  EXPECT_EQ(g.procs[0].rank, 0);
  EXPECT_EQ(g.procs[1].rank, 1);
  EXPECT_EQ(g.procs[2].rank, -1);
}

TEST(DesignGraphExport, IsTerminalForTheContext) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  ctx.add_clocked("tick", [&] { a.write(!a.read()); });
  (void)ctx.export_design_graph();
  // The recheck evaluations perturbed module state and left uncommitted
  // pending writes: simulating this context would be silently wrong.
  EXPECT_THROW(ctx.step(), sim::SimError);
}

TEST(DesignGraphExport, InterpreterKernelRefuses) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  ctx.add_comb("p", [&] { (void)a.read(); });
  ctx.set_kernel(sim::KernelKind::kInterp);
  // The graph is the compiled scheduler's discovery output; the interpreter
  // never builds one.
  EXPECT_THROW(ctx.export_design_graph(), sim::SimError);
}

// --- CRVE100: read but never written ---------------------------------------

TEST(DesignRules, Crve100UndrivenRead) {
  sim::Context ctx;
  sim::SignalBool u(ctx, "u");
  sim::SignalBool o(ctx, "o");
  ctx.add_comb("reader", [&] { o.write(u.read()); });
  const Report rep = lint(ctx);
  ASSERT_TRUE(has_rule(rep, "CRVE100")) << render_text(rep);
  EXPECT_NE(first(rep, "CRVE100").message.find("'u'"), std::string::npos);
  EXPECT_NE(first(rep, "CRVE100").message.find("reader"), std::string::npos);
}

TEST(DesignRules, Crve100NearMissConstructionStrapIsADriver) {
  sim::Context ctx;
  sim::SignalBool u(ctx, "u");
  sim::SignalBool o(ctx, "o");
  u.write(true);  // reset strap: driven even though no process writes it
  ctx.add_comb("reader", [&] { o.write(u.read()); });
  EXPECT_FALSE(has_rule(lint(ctx), "CRVE100"));
}

TEST(DesignRules, Crve100NearMissDeclaredClockedWriteIsADriver) {
  sim::Context ctx;
  sim::SignalBool u(ctx, "u");
  sim::SignalBool o(ctx, "o");
  ctx.add_comb("reader", [&] { o.write(u.read()); });
  // A BFM that drives u only while traffic is pending: the single export
  // evaluation takes the idle branch, the declaration names it anyway.
  sim::ClockedOpts bfm;
  bfm.writes = {&u};
  ctx.add_clocked("bfm", [] {}, std::move(bfm));
  EXPECT_FALSE(has_rule(lint(ctx), "CRVE100"));
}

// --- CRVE101: written but read by none -------------------------------------

TEST(DesignRules, Crve101DeadLogic) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool dead(ctx, "dead");
  a.write(true);
  ctx.add_comb("writer", [&] { dead.write(a.read()); });
  const Report rep = lint(ctx);
  ASSERT_TRUE(has_rule(rep, "CRVE101")) << render_text(rep);
  EXPECT_NE(first(rep, "CRVE101").message.find("'dead'"), std::string::npos);
}

TEST(DesignRules, Crve101NearMissDeclaredClockedReadCounts) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool s(ctx, "s");
  a.write(true);
  ctx.add_comb("writer", [&] { s.write(a.read()); });
  // A checker that samples s only in one protocol phase: declared, not
  // observed by the single export evaluation.
  sim::ClockedOpts chk;
  chk.reads = {&s};
  ctx.add_clocked("checker", [] {}, std::move(chk));
  EXPECT_FALSE(has_rule(lint(ctx), "CRVE101"));
}

// --- CRVE102: multiple combinational drivers -------------------------------

TEST(DesignRules, Crve102ContestedSignal) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool s(ctx, "s");
  a.write(true);
  ctx.add_comb("drv_a", [&] { s.write(a.read()); });
  ctx.add_comb("drv_b", [&] { s.write(!a.read()); });
  sim::ClockedOpts obs;
  obs.reads = {&s};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  const Report rep = lint(ctx);
  ASSERT_TRUE(has_rule(rep, "CRVE102")) << render_text(rep);
  const Finding& f = first(rep, "CRVE102");
  EXPECT_EQ(f.severity, Severity::kError);
  EXPECT_NE(f.message.find("'drv_a'"), std::string::npos);
  EXPECT_NE(f.message.find("'drv_b'"), std::string::npos);
}

TEST(DesignRules, Crve102DeclaredCombWriteCountsAsDriver) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool s(ctx, "s");
  a.write(true);
  ctx.add_comb("drv_a", [&] { s.write(a.read()); });
  sim::CombOpts decl;
  decl.reads = {&a};
  decl.writes = {&s};  // conditional writer: invisible to recording
  ctx.add_comb("drv_b", [&] { (void)a.read(); }, std::move(decl));
  EXPECT_TRUE(has_rule(lint(ctx), "CRVE102"));
}

TEST(DesignRules, Crve102NearMissClockedPlusCombDriverIsFine) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool s(ctx, "s");
  a.write(true);
  ctx.add_comb("drv", [&] { s.write(a.read()); });
  // Clocked writes commit on the edge, before settling: no ordering race
  // with the one combinational driver.
  sim::ClockedOpts reg;
  reg.writes = {&s};
  ctx.add_clocked("reg", [] {}, std::move(reg));
  sim::ClockedOpts obs;
  obs.reads = {&s};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  EXPECT_FALSE(has_rule(lint(ctx), "CRVE102"));
}

// --- CRVE103: outputs with no visible inputs -------------------------------

TEST(DesignRules, Crve103FrozenConstantDriver) {
  sim::Context ctx;
  sim::SignalBool s(ctx, "s");
  bool hidden = false;  // module state the scheduler cannot see
  ctx.add_comb("frozen", [&] { s.write(hidden); });
  sim::ClockedOpts obs;
  obs.reads = {&s};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  const Report rep = lint(ctx);
  ASSERT_TRUE(has_rule(rep, "CRVE103")) << render_text(rep);
  EXPECT_NE(first(rep, "CRVE103").message.find("'frozen'"),
            std::string::npos);
}

TEST(DesignRules, Crve103NearMissStateTagMakesItSchedulable) {
  sim::Context ctx;
  sim::SignalBool s(ctx, "s");
  sim::StateTag tag;
  bool hidden = false;
  sim::CombOpts opts;
  opts.state = &tag;  // the owning module bumps this when `hidden` changes
  ctx.add_comb("driven", [&] { s.write(hidden); }, std::move(opts));
  sim::ClockedOpts obs;
  obs.reads = {&s};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  EXPECT_FALSE(has_rule(lint(ctx), "CRVE103"));
}

// --- CRVE104: post-settle recheck read outside the declared set ------------

TEST(DesignRules, Crve104StaleReadHazard) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool b(ctx, "b");
  sim::SignalBool o(ctx, "o");
  a.write(true);
  b.write(true);
  // First (discovery) evaluation reads only a; every later evaluation —
  // including the post-settle recheck — also reads b. The scheduler's
  // dirty-set for this process never includes b: the classic stale read.
  int evals = 0;
  ctx.add_comb("sneaky", [&] {
    ++evals;
    bool v = a.read();
    if (evals > 1) v = v && b.read();
    o.write(v);
  });
  sim::ClockedOpts obs;
  obs.reads = {&o};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  const Report rep = lint(ctx);
  ASSERT_TRUE(has_rule(rep, "CRVE104")) << render_text(rep);
  EXPECT_NE(first(rep, "CRVE104").message.find("'b'"), std::string::npos);
}

TEST(DesignRules, Crve104NearMissDeclarationCoversTheBranch) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool b(ctx, "b");
  sim::SignalBool o(ctx, "o");
  a.write(true);
  b.write(true);
  int evals = 0;
  sim::CombOpts decl;
  decl.reads = {&b};  // the CombOpts contract: declare the superset
  ctx.add_comb("honest",
               [&] {
                 ++evals;
                 bool v = a.read();
                 if (evals > 1) v = v && b.read();
                 o.write(v);
               },
               std::move(decl));
  sim::ClockedOpts obs;
  obs.reads = {&o};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  const Report rep = lint(ctx);
  EXPECT_FALSE(has_rule(rep, "CRVE104")) << render_text(rep);
  // And the declaration is not flagged as stale either: the recheck saw it.
  EXPECT_FALSE(has_rule(rep, "CRVE105")) << render_text(rep);
}

// --- CRVE105: declared read never observed ---------------------------------

TEST(DesignRules, Crve105StaleDeclaration) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool unused(ctx, "unused");
  sim::SignalBool o(ctx, "o");
  a.write(true);
  unused.write(true);
  sim::CombOpts decl;
  decl.reads = {&unused};  // left over from a refactor
  ctx.add_comb("p", [&] { o.write(a.read()); }, std::move(decl));
  sim::ClockedOpts obs;
  obs.reads = {&o};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  const Report rep = lint(ctx);
  ASSERT_TRUE(has_rule(rep, "CRVE105")) << render_text(rep);
  EXPECT_EQ(first(rep, "CRVE105").severity, Severity::kNote);
  EXPECT_NE(first(rep, "CRVE105").message.find("'unused'"),
            std::string::npos);
}

TEST(DesignRules, Crve105NearMissObservedDeclarationIsSilent) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool o(ctx, "o");
  a.write(true);
  sim::CombOpts decl;
  decl.reads = {&a};  // declared and recorded: belt and braces, no finding
  ctx.add_comb("p", [&] { o.write(a.read()); }, std::move(decl));
  sim::ClockedOpts obs;
  obs.reads = {&o};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  EXPECT_FALSE(has_rule(lint(ctx), "CRVE105"));
}

// --- CRVE107: schedule-shape thresholds ------------------------------------

TEST(DesignRules, Crve107RankDepthPastBudget) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool b(ctx, "b");
  sim::SignalBool c(ctx, "c");
  sim::SignalBool d(ctx, "d");
  a.write(true);
  ctx.add_comb("p1", [&] { b.write(a.read()); });
  ctx.add_comb("p2", [&] { c.write(b.read()); });
  ctx.add_comb("p3", [&] { d.write(c.read()); });
  sim::ClockedOpts obs;
  obs.reads = {&d};
  ctx.add_clocked("obs", [] {}, std::move(obs));

  DesignRuleOptions tight;
  tight.max_rank_depth = 2;  // the chain levelizes to 3 ranks
  const Report rep = lint(ctx, tight);
  ASSERT_TRUE(has_rule(rep, "CRVE107")) << render_text(rep);
  EXPECT_NE(first(rep, "CRVE107").message.find("levels deep"),
            std::string::npos);
}

TEST(DesignRules, Crve107FanoutPastBudgetAndDefaultNearMiss) {
  sim::Context ctx;
  sim::SignalBool hub(ctx, "hub");
  sim::SignalBool o1(ctx, "o1");
  sim::SignalBool o2(ctx, "o2");
  sim::SignalBool o3(ctx, "o3");
  hub.write(true);
  ctx.add_comb("r1", [&] { o1.write(hub.read()); });
  ctx.add_comb("r2", [&] { o2.write(hub.read()); });
  ctx.add_comb("r3", [&] { o3.write(hub.read()); });
  sim::ClockedOpts obs;
  obs.reads = {&o1, &o2, &o3};
  ctx.add_clocked("obs", [] {}, std::move(obs));

  DesignRuleOptions tight;
  tight.max_fanout = 2;
  const auto g = ctx.export_design_graph();
  const Report rep = lint_design_graph(g, "<test>", "T", tight);
  ASSERT_TRUE(has_rule(rep, "CRVE107")) << render_text(rep);
  EXPECT_NE(first(rep, "CRVE107").message.find("'hub'"), std::string::npos);
  EXPECT_NE(first(rep, "CRVE107").message.find("fans out to 3"),
            std::string::npos);
  // Near miss: the same graph under the default thresholds stays silent.
  EXPECT_FALSE(has_rule(lint_design_graph(g, "<test>", "T"), "CRVE107"));
}

// --- CRVE108: unreachable process ------------------------------------------

TEST(DesignRules, Crve108NoOpProcess) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  a.write(true);
  sim::ClockedOpts obs;
  obs.reads = {&a};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  ctx.add_comb("noop", [] {});
  const Report rep = lint(ctx);
  ASSERT_TRUE(has_rule(rep, "CRVE108")) << render_text(rep);
  EXPECT_NE(first(rep, "CRVE108").message.find("'noop'"), std::string::npos);
}

TEST(DesignRules, Crve108NearMissAfterProducerHasAnOrderingRole) {
  sim::Context ctx;
  sim::SignalBool a(ctx, "a");
  sim::SignalBool o(ctx, "o");
  a.write(true);
  // "decider" passes its decision through module members, not signals; the
  // consumer's `after` edge is what makes it observable.
  ctx.add_comb("decider", [] {});
  sim::CombOpts opts;
  opts.reads = {&a};
  opts.after = {"decider"};
  ctx.add_comb("consumer", [&] { o.write(a.read()); }, std::move(opts));
  sim::ClockedOpts obs;
  obs.reads = {&o};
  ctx.add_clocked("obs", [] {}, std::move(obs));
  EXPECT_FALSE(has_rule(lint(ctx), "CRVE108"));
}

// --- CRVE110: cross-view environment divergence ----------------------------

TEST(DesignRules, Crve110EnvSignalMissingFromOneView) {
  sim::DesignGraph rtl, bca;
  rtl.signals = {{"tb.clk", 1, false},
                 {"tb.extra", 1, false},
                 {"rtl_dut.internal", 1, false}};
  bca.signals = {{"tb.clk", 1, false}, {"bca_dut.other", 1, false}};
  const Report rep = lint_design_views(rtl, "RTL", bca, "BCA", "<test>");
  ASSERT_EQ(count_rule(rep, "CRVE110"), 1) << render_text(rep);
  const Finding& f = first(rep, "CRVE110");
  EXPECT_EQ(f.severity, Severity::kError);
  // Direction and signal are both named; DUT-internal names never compare.
  EXPECT_NE(f.message.find("'tb.extra'"), std::string::npos);
  EXPECT_NE(f.message.find("RTL"), std::string::npos);
}

TEST(DesignRules, Crve110NearMissMatchingEnvironments) {
  sim::DesignGraph rtl, bca;
  rtl.signals = {{"tb.clk", 1, false}, {"rtl_dut.a", 1, false}};
  bca.signals = {{"tb.clk", 1, false}, {"bca_dut.b", 1, false}};
  EXPECT_FALSE(
      has_rule(lint_design_views(rtl, "RTL", bca, "BCA", "<test>"),
               "CRVE110"));
}

// --- the elaboration driver ------------------------------------------------

TEST(DesignLintDriver, ShippedConfigsLintCleanOfErrorsAndWarnings) {
  const auto res = lint_design_dir(CRVE_SOURCE_DIR "/configs");
  EXPECT_EQ(res.report.errors(), 0) << render_text(res.report);
  EXPECT_EQ(res.report.warnings(), 0) << render_text(res.report);
  EXPECT_EQ(res.report.exit_code(), 0);
  // Three shipped configurations, two views each, in RTL-then-BCA order.
  ASSERT_EQ(res.summaries.size(), 6u);
  for (std::size_t i = 0; i < res.summaries.size(); ++i) {
    const DesignSummary& s = res.summaries[i];
    EXPECT_EQ(s.view, i % 2 == 0 ? "RTL" : "BCA");
    EXPECT_GT(s.signals, 0u);
    EXPECT_GT(s.clocked_processes, 0u);
    EXPECT_GE(s.ranks, 1u);
    EXPECT_EQ(s.errors, 0);
    EXPECT_EQ(s.warnings, 0);
  }
  // Both views elaborate the same environment: signal arenas match.
  for (std::size_t i = 0; i + 1 < res.summaries.size(); i += 2) {
    EXPECT_EQ(res.summaries[i].signals, res.summaries[i + 1].signals)
        << res.summaries[i].config;
  }
}

TEST(DesignLintDriver, SelftestSeedsExactlyTheAdvertisedDefects) {
  const auto res = lint_design_selftest();
  EXPECT_EQ(res.report.exit_code(), 2);
  EXPECT_EQ(res.report.errors(), 1) << render_text(res.report);
  EXPECT_EQ(res.report.warnings(), 1) << render_text(res.report);
  EXPECT_TRUE(has_rule(res.report, "CRVE102"));
  EXPECT_TRUE(has_rule(res.report, "CRVE100"));
}

TEST(DesignLintDriver, UnreadableConfigIsAFindingNotAThrow) {
  const auto res = lint_design_file("/nonexistent/never/x.cfg");
  EXPECT_EQ(res.report.exit_code(), 2);
  EXPECT_TRUE(res.summaries.empty());
}

TEST(DesignLintDriver, SummaryJsonIsWellFormed) {
  const auto res = lint_design_dir(CRVE_SOURCE_DIR "/configs");
  const auto doc = json::parse(design_summary_json(res.summaries));
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("build"), nullptr);
  const json::Value* configs = doc.find("configs");
  ASSERT_NE(configs, nullptr);
  ASSERT_EQ(configs->items.size(), 6u);
  for (const auto& c : configs->items) {
    EXPECT_FALSE(c.string_or("config", "").empty());
    const std::string view = c.string_or("view", "");
    EXPECT_TRUE(view == "RTL" || view == "BCA");
    EXPECT_GT(c.number_or("signals", 0), 0);
    ASSERT_NE(c.find("findings"), nullptr);
    EXPECT_EQ(c.find("findings")->number_or("errors", -1), 0);
  }
}

// --- renderers over mixed rule families ------------------------------------

// SARIF 2.1.0 with config-family (CRVE0xx) and design-family (CRVE1xx)
// results in one document: ruleIndex must stay consistent with the merged
// catalogue for GitHub code scanning to attribute findings correctly.
TEST(DesignLintRender, SarifMixesConfigAndDesignFamilies) {
  Report mixed = lint_config_text("type = 9\n", "configs/broken.cfg");
  mixed.merge(lint_design_selftest().report);
  mixed.sort();
  ASSERT_GE(mixed.findings.size(), 2u);

  const auto doc = json::parse(render_sarif(mixed));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("version", ""), "2.1.0");
  const json::Value& run = doc.find("runs")->items[0];
  const json::Value* rules = run.find("tool")->find("driver")->find("rules");
  ASSERT_NE(rules, nullptr);
  // The driver catalogue carries the design family alongside the others.
  bool has_design_rule = false;
  for (const auto& rule : rules->items) {
    has_design_rule |= rule.string_or("id", "") == "CRVE102";
  }
  EXPECT_TRUE(has_design_rule);

  const json::Value* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), mixed.findings.size());
  bool saw_config_family = false, saw_design_family = false;
  for (const auto& res : results->items) {
    const std::string id = res.string_or("ruleId", "");
    ASSERT_NE(find_rule(id), nullptr) << id;
    saw_config_family |= id < "CRVE100";
    saw_design_family |= id >= "CRVE100";
    const auto idx = static_cast<std::size_t>(res.number_or("ruleIndex", -1));
    ASSERT_LT(idx, rule_catalogue().size());
    EXPECT_STREQ(rule_catalogue()[idx].id, id.c_str());
  }
  EXPECT_TRUE(saw_config_family);
  EXPECT_TRUE(saw_design_family);
}

// Byte-determinism of every renderer under merge order: the parallel driver
// may collect per-view reports in any order, merge + sort must erase it.
TEST(DesignLintRender, MergeOrderErasedBySort) {
  const auto forward_parts = [] {
    std::vector<Report> parts;
    parts.push_back(lint_config_text("type = 9\n", "configs/broken.cfg"));
    parts.push_back(lint_design_selftest().report);
    return parts;
  }();

  Report forward;
  for (auto p : forward_parts) forward.merge(std::move(p));
  forward.sort();

  Report reversed;
  for (auto it = forward_parts.rbegin(); it != forward_parts.rend(); ++it) {
    Report copy = *it;
    reversed.merge(std::move(copy));
  }
  reversed.sort();

  EXPECT_EQ(render_text(forward), render_text(reversed));
  EXPECT_EQ(render_json(forward), render_json(reversed));
  EXPECT_EQ(render_sarif(forward), render_sarif(reversed));
}

}  // namespace
}  // namespace crve::lint

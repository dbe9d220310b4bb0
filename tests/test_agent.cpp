// Port agent tests: one clocked process per environment-side port, a cell
// decoded only for the parts that consume it, a design-graph declaration
// that is the union of the parts', and an environment (monitors, checkers,
// scoreboard, coverage, reference model) that adds no kernel evaluations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "regress/config_file.h"
#include "sim/design_graph.h"
#include "stbus/pins.h"
#include "verif/agent.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using stbus::Opcode;
using stbus::PortPins;
using verif::ModelKind;
using verif::PortAgent;

stbus::NodeConfig port_cfg() {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.validate_and_normalize();
  return cfg;
}

stbus::RequestCell ld4(std::uint32_t add) {
  stbus::RequestCell c;
  c.opc = Opcode::kLd4;
  c.add = add;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = true;
  return c;
}

verif::TestbenchOptions environment(ModelKind model, bool on) {
  verif::TestbenchOptions opts;
  opts.model = model;
  opts.seed = 11;
  if (!on) opts.drop_passive_environment();
  return opts;
}

const sim::DesignProc* find_proc(const sim::DesignGraph& g,
                                 const std::string& name) {
  for (const auto& p : g.procs) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

// Sorted signal names of a graph index set.
std::vector<std::string> names(const sim::DesignGraph& g,
                               const std::vector<int>& idx) {
  std::vector<std::string> out;
  for (const int i : idx) {
    out.push_back(g.signals[static_cast<std::size_t>(i)].name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Sorted dotted names of `fields` on `port`.
std::vector<std::string> fields(const std::string& port,
                                std::vector<std::string> fs) {
  for (auto& f : fs) f = port + "." + f;
  std::sort(fs.begin(), fs.end());
  return fs;
}

TEST(PortAgent, OneClockedProcessPerEnvironmentPort) {
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 10;
  verif::TestbenchOptions opts = environment(ModelKind::kRtl, true);
  opts.profile = true;
  verif::Testbench tb(port_cfg(), spec, opts);
  const verif::RunResult r = tb.run();
  ASSERT_TRUE(r.passed());
  std::vector<std::string> env;
  for (const auto& p : r.profile.procs) {
    if (!p.clocked) continue;
    for (const char* prefix : {"agent.", "bfm.", "tgt.", "mon.", "chk."}) {
      if (p.name.rfind(prefix, 0) == 0) env.push_back(p.name);
    }
  }
  EXPECT_EQ(env, (std::vector<std::string>{"agent.init0", "agent.init1",
                                           "agent.targ0", "agent.targ1"}));
}

TEST(PortAgent, DeclaresTheUnionOfItsParts) {
  const std::vector<std::string> req_pay = {"opc", "add", "data", "be",
                                            "eop", "lck", "src", "tid"};
  const std::vector<std::string> rsp_pay = {"r_opc", "r_data", "r_eop",
                                            "r_src", "r_tid"};
  auto with = [](std::vector<std::string> a,
                 const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const auto handshakes =
      std::vector<std::string>{"req", "gnt", "r_req", "r_gnt"};
  for (const bool on : {true, false}) {
    verif::TestSpec spec = verif::t02_random_all_opcodes();
    spec.n_transactions = 4;
    verif::Testbench tb(port_cfg(), spec, environment(ModelKind::kBca, on));
    const sim::DesignGraph g = tb.ctx().export_design_graph();
    const sim::DesignProc* init = find_proc(g, "agent.init0");
    const sim::DesignProc* targ = find_proc(g, "agent.targ0");
    ASSERT_NE(init, nullptr);
    ASSERT_NE(targ, nullptr);
    EXPECT_TRUE(init->clocked);

    // Each BFM writes its channel's cell and the other channel's grant.
    EXPECT_EQ(names(g, init->declared_writes),
              fields("tb.init0", with(with(req_pay, {"req"}), {"r_gnt"})))
        << on;
    EXPECT_EQ(names(g, targ->declared_writes),
              fields("tb.targ0", with(with(rsp_pay, {"r_req"}), {"gnt"})))
        << on;
    if (on) {
      // The checker and monitor read the whole bundle.
      const auto all = with(with(req_pay, rsp_pay), handshakes);
      EXPECT_EQ(names(g, init->declared_reads), fields("tb.init0", all));
      EXPECT_EQ(names(g, targ->declared_reads), fields("tb.targ0", all));
    } else {
      // The BFMs alone: neither reads the payload it drives.
      EXPECT_EQ(names(g, init->declared_reads),
                fields("tb.init0", with(rsp_pay, handshakes)));
      EXPECT_EQ(names(g, targ->declared_reads),
                fields("tb.targ0", with(req_pay, handshakes)));
    }
  }
}

// A held, never-granted request: a monitor-only agent leaves the cell
// undecoded (it never fires), a checker decodes it on every requested cycle.
TEST(PortAgent, DecodesACellOnlyForThePartsThatReadIt) {
  for (const bool with_checker : {false, true}) {
    sim::Context ctx;
    const auto cfg = port_cfg();
    PortPins pins(ctx, "tb.p", cfg);
    verif::Monitor mon("p", pins);
    verif::ProtocolChecker chk(ctx, "p", pins, cfg.type,
                               verif::ProtocolChecker::Role::kInitiatorPort,
                               0, &cfg);
    PortAgent agent(ctx, "p", pins,
                    {.checker = with_checker ? &chk : nullptr,
                     .monitor = &mon});
    ctx.initialize();
    pins.drive_request(ld4(0x140));
    ctx.step(3);
    ASSERT_TRUE(agent.view().req);
    ASSERT_FALSE(agent.view().gnt);
    EXPECT_EQ(agent.view().request.add, with_checker ? 0x140u : 0u);

    // Granted: every consumer gets the decoded cell.
    pins.gnt.write(true);
    ctx.step(2);
    EXPECT_TRUE(agent.view().request_fires());
    EXPECT_EQ(agent.view().request.add, 0x140u);
    EXPECT_EQ(mon.stats().request_cells, 1u);
  }
}

// The environment is one process per port whatever it holds, so turning
// every verification component on costs no kernel evaluation: the counts
// match an active-side-only run exactly, on every shipped config and both
// views. The Type 1 programming port is outside the agents; its checker is
// a process of its own on the active side, built with or without the
// passive environment.
TEST(PortAgent, EnvironmentAddsNoEvaluationsOnShippedConfigs) {
  const auto configs = regress::configs_from_dir(CRVE_SOURCE_DIR "/configs");
  ASSERT_FALSE(configs.empty());
  for (const auto& cfg : configs) {
    for (verif::TestSpec spec : verif::catg_test_suite()) {
      spec.n_transactions = 15;
      for (const auto model : {ModelKind::kRtl, ModelKind::kBca}) {
        const std::string where =
            cfg.name + "/" + spec.name + "/" + verif::to_string(model);
        verif::Testbench tb_on(cfg, spec, environment(model, true));
        const verif::RunResult on = tb_on.run();
        const verif::RunResult off =
            verif::Testbench(cfg, spec, environment(model, false)).run();
        EXPECT_TRUE(on.passed()) << where;
        EXPECT_EQ(on.cycles, off.cycles) << where;
        EXPECT_EQ(on.evaluations, off.evaluations) << where;
      }
    }
  }
}

}  // namespace
}  // namespace crve

// Monitor unit tests plus the wrapped-view equivalence invariant: plugging
// the BCA model through the Fig.-3 wrapper relays must not change a single
// cycle at the environment-side pins — only the simulation cost.
#include <gtest/gtest.h>

#include <sstream>

#include "stba/analyzer.h"
#include "verif/agent.h"
#include "verif/monitor.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using stbus::NodeConfig;
using stbus::Opcode;
using stbus::PortPins;

NodeConfig mcfg() {
  NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.validate_and_normalize();
  return cfg;
}

struct Listener : verif::MonitorListener {
  int req_cells = 0, rsp_cells = 0, req_pkts = 0, rsp_pkts = 0;
  std::vector<std::size_t> pkt_sizes;
  void on_request_cell(const stbus::RequestCell&, std::uint64_t) override {
    ++req_cells;
  }
  void on_response_cell(const stbus::ResponseCell&, std::uint64_t) override {
    ++rsp_cells;
  }
  void on_request_packet(const verif::ObservedRequest& p) override {
    ++req_pkts;
    pkt_sizes.push_back(p.cells.size());
  }
  void on_response_packet(const verif::ObservedResponse&) override {
    ++rsp_pkts;
  }
};

TEST(Monitor, AssemblesPacketsAndCountsCycles) {
  sim::Context ctx;
  PortPins pins(ctx, "tb.p", mcfg());
  verif::Monitor mon("p", pins);
  verif::PortAgent agent(ctx, "p", pins, {.monitor = &mon});
  Listener lst;
  mon.subscribe(&lst);
  ctx.initialize();

  // Two-beat store packet, granted back to back.
  stbus::Request req;
  req.opc = Opcode::kSt8;
  req.add = 0x40;
  req.wdata.assign(8, 0xab);
  const auto cells = stbus::build_request(req, 4, stbus::ProtocolType::kType2);
  pins.gnt.write(true);
  for (const auto& c : cells) {
    pins.drive_request(c);
    ctx.step();
  }
  pins.idle_request();
  ctx.step(2);

  EXPECT_EQ(lst.req_cells, 2);
  EXPECT_EQ(lst.req_pkts, 1);
  ASSERT_EQ(lst.pkt_sizes.size(), 1u);
  EXPECT_EQ(lst.pkt_sizes[0], 2u);
  EXPECT_EQ(mon.stats().request_cells, 2u);
  EXPECT_EQ(mon.stats().busy_cycles, 2u);
  EXPECT_FALSE(mon.request_in_progress());
}

TEST(Monitor, UngatedRequestNotCounted) {
  sim::Context ctx;
  PortPins pins(ctx, "tb.p", mcfg());
  verif::Monitor mon("p", pins);
  verif::PortAgent agent(ctx, "p", pins, {.monitor = &mon});
  ctx.initialize();
  stbus::RequestCell c;
  c.opc = Opcode::kLd4;
  c.add = 0x10;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = true;
  pins.drive_request(c);  // gnt stays low
  ctx.step(3);
  EXPECT_EQ(mon.stats().request_cells, 0u);
  EXPECT_EQ(mon.stats().busy_cycles, 0u);
}

TEST(Monitor, PartialPacketReported) {
  sim::Context ctx;
  PortPins pins(ctx, "tb.p", mcfg());
  verif::Monitor mon("p", pins);
  verif::PortAgent agent(ctx, "p", pins, {.monitor = &mon});
  ctx.initialize();
  stbus::RequestCell c;
  c.opc = Opcode::kLd8;
  c.add = 0x40;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = false;  // first beat only
  c.lck = true;
  pins.drive_request(c);
  pins.gnt.write(true);
  ctx.step(2);
  EXPECT_TRUE(mon.request_in_progress());
}

// --------------------------------------------------------------------------
// Wrapped-view equivalence
// --------------------------------------------------------------------------

class WrappedEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(WrappedEquivalence, WrapperChangesCostNotCycles) {
  verif::TestSpec spec;
  const std::string which = GetParam();
  for (auto& s : verif::catg_test_suite()) {
    if (s.name == which) spec = s;
  }
  ASSERT_FALSE(spec.name.empty());
  spec.n_transactions = 40;

  std::ostringstream wave_native, wave_wrapped;
  verif::RunResult native, wrapped;
  for (int m = 0; m < 2; ++m) {
    verif::TestbenchOptions opts;
    opts.model =
        m == 0 ? verif::ModelKind::kBca : verif::ModelKind::kBcaWrapped;
    opts.seed = 21;
    opts.vcd_stream = m == 0 ? &wave_native : &wave_wrapped;
    verif::Testbench tb(mcfg(), spec, opts);
    (m == 0 ? native : wrapped) = tb.run();
  }
  EXPECT_TRUE(native.passed());
  EXPECT_TRUE(wrapped.passed());
  EXPECT_EQ(native.cycles, wrapped.cycles);
  EXPECT_EQ(native.coverage_digest, wrapped.coverage_digest);
  // The wrapper burns more kernel evaluations for the same cycles.
  EXPECT_GT(wrapped.evaluations, native.evaluations);

  // Cycle-for-cycle identical at the environment-side pins.
  std::istringstream a(wave_native.str()), b(wave_wrapped.str());
  const vcd::Trace ta = vcd::Trace::parse(a);
  const vcd::Trace tb2 = vcd::Trace::parse(b);
  std::vector<std::string> ports;
  for (int i = 0; i < 2; ++i) {
    ports.push_back(verif::Testbench::initiator_port_name(i));
    ports.push_back(verif::Testbench::target_port_name(i));
  }
  const auto rep = stba::Analyzer::compare(ta, tb2, ports);
  EXPECT_DOUBLE_EQ(rep.min_rate(), 1.0) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(Tests, WrappedEquivalence,
                         ::testing::Values("t02_random_all_opcodes",
                                           "t05_chunked_traffic",
                                           "t09_backpressure"));

}  // namespace
}  // namespace crve

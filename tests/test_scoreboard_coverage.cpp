// Scoreboard negative tests (driven through monitor callbacks directly)
// and functional-coverage unit tests.
#include <gtest/gtest.h>

#include "verif/agent.h"
#include "verif/coverage.h"
#include "verif/monitor.h"
#include "verif/scoreboard.h"

namespace crve {
namespace {

using stbus::Opcode;
using stbus::RequestCell;
using stbus::ResponseCell;
using stbus::RspOpcode;
using verif::ObservedRequest;
using verif::ObservedResponse;
using verif::Scoreboard;

stbus::NodeConfig cfg2x2() {
  stbus::NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.validate_and_normalize();
  return cfg;
}

ObservedRequest req_pkt(Opcode opc, std::uint32_t add, std::uint8_t src,
                        std::uint8_t tid = 0) {
  stbus::Request r;
  r.opc = opc;
  r.add = add;
  r.src = src;
  r.tid = tid;
  if (stbus::is_store(opc) || stbus::is_atomic(opc)) {
    r.wdata.assign(static_cast<std::size_t>(stbus::size_bytes(opc)), 0x3c);
  }
  ObservedRequest pkt;
  pkt.cells = stbus::build_request(r, 4, stbus::ProtocolType::kType2);
  pkt.cycles.assign(pkt.cells.size(), 10);
  return pkt;
}

ObservedResponse rsp_pkt(Opcode opc, std::uint32_t add, std::uint8_t src,
                         std::uint8_t tid = 0,
                         RspOpcode status = RspOpcode::kOk) {
  std::vector<std::uint8_t> rdata;
  if (stbus::is_load(opc) || stbus::is_atomic(opc)) {
    rdata.assign(static_cast<std::size_t>(stbus::size_bytes(opc)), 0x77);
  }
  ObservedResponse pkt;
  pkt.cells = stbus::build_response(opc, add, rdata, status, 4,
                                    stbus::ProtocolType::kType2, src, tid);
  pkt.cycles.assign(pkt.cells.size(), 20);
  return pkt;
}

// Exposes the scoreboard's per-port entry points via friend-free plumbing:
// we emulate monitors by constructing a Scoreboard and calling through the
// taps a Monitor would call. Since the taps are private, we instead build a
// tiny sim with real monitors... that is heavyweight; instead the Scoreboard
// API is exercised through the public attach/observe path in the
// integration tests, and here we use a derived fixture with real Monitors.
struct SbRig {
  sim::Context ctx;
  stbus::NodeConfig cfg = cfg2x2();
  stbus::PortPins ipins{ctx, "tb.i0", cfg};
  stbus::PortPins tpins{ctx, "tb.t0", cfg};
  verif::Monitor imon{"i0", ipins};
  verif::Monitor tmon{"t0", tpins};
  verif::PortAgent iagent{ctx, "i0", ipins, {.monitor = &imon}};
  verif::PortAgent tagent{ctx, "t0", tpins, {.monitor = &tmon}};
  Scoreboard sb{cfg};

  SbRig() {
    sb.attach_initiator(imon, 0);
    sb.attach_target(tmon, 0);
    // Settle the idle state so later writes commit on their own cycles.
    ctx.initialize();
  }

  // Plays a packet through a pin bundle so the monitor observes it.
  void play_req(stbus::PortPins& pins, const ObservedRequest& pkt) {
    for (const auto& c : pkt.cells) {
      pins.drive_request(c);
      pins.gnt.write(true);
      ctx.step();
    }
    pins.idle_request();
    pins.gnt.write(false);
    ctx.step();
  }
  void play_rsp(stbus::PortPins& pins, const ObservedResponse& pkt) {
    for (const auto& c : pkt.cells) {
      pins.drive_response(c);
      pins.r_gnt.write(true);
      ctx.step();
    }
    pins.idle_response();
    pins.r_gnt.write(false);
    ctx.step();
  }
};

TEST(Scoreboard, CleanTransportMatches) {
  SbRig rig;
  const auto pkt = req_pkt(Opcode::kSt8, 0x40, 0);
  rig.play_req(rig.ipins, pkt);   // seen at initiator port
  rig.play_req(rig.tpins, pkt);   // identical at target port
  const auto rsp = rsp_pkt(Opcode::kSt8, 0x40, 0);
  rig.play_rsp(rig.tpins, rsp);
  rig.play_rsp(rig.ipins, rsp);
  rig.sb.end_of_test();
  EXPECT_TRUE(rig.sb.clean()) << rig.sb.errors().front().message;
  EXPECT_EQ(rig.sb.stats().requests_matched, 1u);
  EXPECT_EQ(rig.sb.stats().responses_matched, 1u);
}

TEST(Scoreboard, CorruptedRequestDataDetected) {
  SbRig rig;
  auto pkt = req_pkt(Opcode::kSt8, 0x40, 0);
  rig.play_req(rig.ipins, pkt);
  pkt.cells[1].data.set_byte(0, 0xEE);  // corrupted through the node
  rig.play_req(rig.tpins, pkt);
  EXPECT_FALSE(rig.sb.clean());
  EXPECT_NE(rig.sb.errors().front().message.find("corrupted"),
            std::string::npos);
}

TEST(Scoreboard, DroppedByteEnablesDetected) {
  SbRig rig;
  auto pkt = req_pkt(Opcode::kSt1, 0x43, 0);  // sub-bus store, lane 3
  rig.play_req(rig.ipins, pkt);
  pkt.cells[0].be = Bits::all_ones(4);  // the BCA fault's signature
  rig.play_req(rig.tpins, pkt);
  EXPECT_FALSE(rig.sb.clean());
}

TEST(Scoreboard, PhantomRequestAtTargetDetected) {
  SbRig rig;
  rig.play_req(rig.tpins, req_pkt(Opcode::kLd4, 0x40, 0));
  EXPECT_FALSE(rig.sb.clean());
  EXPECT_NE(rig.sb.errors().front().message.find("never issued"),
            std::string::npos);
}

TEST(Scoreboard, CorruptedResponseDataDetected) {
  SbRig rig;
  rig.play_req(rig.ipins, req_pkt(Opcode::kLd4, 0x40, 0));
  rig.play_req(rig.tpins, req_pkt(Opcode::kLd4, 0x40, 0));
  auto rsp = rsp_pkt(Opcode::kLd4, 0x40, 0);
  rig.play_rsp(rig.tpins, rsp);
  rsp.cells[0].data.set_byte(2, 0x00);  // corrupted on the way back
  rig.play_rsp(rig.ipins, rsp);
  EXPECT_FALSE(rig.sb.clean());
}

TEST(Scoreboard, LostPacketsReportedAtEndOfTest) {
  SbRig rig;
  rig.play_req(rig.ipins, req_pkt(Opcode::kLd4, 0x40, 0));
  rig.sb.end_of_test();
  EXPECT_FALSE(rig.sb.clean());
}

TEST(Scoreboard, DecodeErrorResponseMatched) {
  SbRig rig;
  // Address outside every range: scoreboard expects a node ERROR response.
  rig.play_req(rig.ipins, req_pkt(Opcode::kLd4, 0xdead0000u, 0));
  ObservedResponse err;
  err.cells = stbus::build_response(Opcode::kLd4, 0xdead0000u,
                                    std::vector<std::uint8_t>(4, 0),
                                    RspOpcode::kError, 4,
                                    stbus::ProtocolType::kType2, 0, 0);
  err.cycles.assign(err.cells.size(), 30);
  rig.play_rsp(rig.ipins, err);
  rig.sb.end_of_test();
  EXPECT_TRUE(rig.sb.clean()) << rig.sb.errors().front().message;
  EXPECT_EQ(rig.sb.stats().error_responses_matched, 1u);
}

// ---------------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------------

using verif::Coverpoint;
using verif::Cross;
using verif::StbusCoverage;

TEST(Coverage, CoverpointBinsAndPercent) {
  Coverpoint cp = Coverpoint::identity("x", 4);
  EXPECT_EQ(cp.num_bins(), 4);
  EXPECT_EQ(cp.bins_hit(), 0);
  cp.sample(1);
  cp.sample(1);
  cp.sample(3);
  EXPECT_EQ(cp.bins_hit(), 2);
  EXPECT_DOUBLE_EQ(cp.percent(), 50.0);
  cp.sample(99);  // out of range: ignored
  EXPECT_EQ(cp.bins_hit(), 2);
}

TEST(Coverage, RangeBins) {
  Coverpoint cp("sz", {{"small", 0, 7, 0}, {"big", 8, 100, 0}});
  cp.sample(3);
  cp.sample(50);
  EXPECT_EQ(cp.bins_hit(), 2);
  EXPECT_EQ(cp.bin_of(7), 0);
  EXPECT_EQ(cp.bin_of(8), 1);
  EXPECT_EQ(cp.bin_of(101), -1);
}

TEST(Coverage, CrossTracksPairs) {
  Coverpoint a = Coverpoint::identity("a", 2);
  Coverpoint b = Coverpoint::identity("b", 3);
  Cross x("axb", a, b);
  EXPECT_EQ(x.num_bins(), 6);
  x.sample(0, 1);
  x.sample(1, 2);
  x.sample(0, 1);
  EXPECT_EQ(x.bins_hit(), 2);
  EXPECT_EQ(x.hits(0, 1), 2u);
  EXPECT_EQ(x.hits(1, 2), 1u);
}

TEST(Coverage, StbusModelCountsAndDigest) {
  const auto cfg = cfg2x2();
  StbusCoverage cov(cfg);
  EXPECT_EQ(cov.bins_hit(), 0);
  ObservedRequest pkt = req_pkt(Opcode::kLd4, 0x40, 0);
  cov.sample_request(0, pkt);
  EXPECT_GT(cov.bins_hit(), 0);
  const auto d1 = cov.digest();
  ObservedResponse rsp = rsp_pkt(Opcode::kLd4, 0x40, 0);
  cov.sample_response(0, rsp);
  EXPECT_NE(cov.digest(), d1);
}

TEST(Coverage, IdenticalSamplingGivesIdenticalDigest) {
  const auto cfg = cfg2x2();
  StbusCoverage a(cfg), b(cfg);
  const auto pkt = req_pkt(Opcode::kSt8, 0x80, 1);
  a.sample_request(1, pkt);
  b.sample_request(1, pkt);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Coverage, MergeAccumulates) {
  const auto cfg = cfg2x2();
  StbusCoverage a(cfg), b(cfg);
  a.sample_request(0, req_pkt(Opcode::kLd4, 0x40, 0));
  b.sample_request(1, req_pkt(Opcode::kSt8, 0x10080, 1));
  const int hits_a = a.bins_hit();
  a.merge(b);
  EXPECT_GT(a.bins_hit(), hits_a);
  EXPECT_EQ(a.bins_total(), b.bins_total());
}

TEST(Coverage, DecodeErrorLandsInErrorBin) {
  const auto cfg = cfg2x2();
  StbusCoverage cov(cfg);
  cov.sample_request(0, req_pkt(Opcode::kLd4, 0xdead0000u, 0));
  const auto rep = cov.report();
  // target point has n_targets+1 bins; exactly one (the error bin) is hit.
  for (const auto& item : rep.items) {
    if (item.name == "target") {
      EXPECT_EQ(item.hit, 1);
    }
  }
}

TEST(Coverage, ReportPercentAggregates) {
  const auto cfg = cfg2x2();
  StbusCoverage cov(cfg);
  const auto rep0 = cov.report();
  EXPECT_EQ(rep0.hit, 0);
  EXPECT_GT(rep0.total, 50);  // crosses make the space non-trivial
  cov.sample_request(0, req_pkt(Opcode::kLd4, 0x40, 0));
  const auto rep1 = cov.report();
  EXPECT_GT(rep1.percent, 0.0);
  EXPECT_LT(rep1.percent, 100.0);
}

}  // namespace
}  // namespace crve

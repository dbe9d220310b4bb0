// Negative tests for the protocol checker: each rule must fire on a
// hand-crafted violation driven straight onto a pin bundle.
#include <gtest/gtest.h>

#include "sim/context.h"
#include "stbus/packet.h"
#include "stbus/pins.h"
#include "verif/agent.h"
#include "verif/protocol_checker.h"

namespace crve {
namespace {

using stbus::Opcode;
using stbus::PortPins;
using stbus::ProtocolType;
using stbus::RequestCell;
using stbus::ResponseCell;
using verif::PortAgent;
using verif::ProtocolChecker;

// Drives scripted cell sequences on a lone pin bundle with a checker
// attached; the "node side" grants everything.
struct CheckerRig {
  sim::Context ctx;
  stbus::NodeConfig cfg;
  PortPins pins;
  ProtocolChecker checker;
  PortAgent agent;

  CheckerRig(ProtocolType type = ProtocolType::kType2, int expected_src = 0)
      : pins(ctx, "tb.p", make_cfg()),
        checker(ctx, "p", pins, type, ProtocolChecker::Role::kInitiatorPort,
                expected_src, &cfg),
        agent(ctx, "p", pins, {.checker = &checker}) {
    cfg = make_cfg();
    // Always-granting environment.
    ctx.add_comb("gnt", [this] {
      pins.gnt.write(pins.req.read());
      pins.r_gnt.write(true);
    });
    // Settle the idle state so later writes commit on their own cycles.
    ctx.initialize();
  }

  static stbus::NodeConfig make_cfg() {
    stbus::NodeConfig cfg;
    cfg.n_initiators = 2;
    cfg.n_targets = 2;
    cfg.bus_bytes = 4;
    cfg.validate_and_normalize();
    return cfg;
  }

  static RequestCell legal_ld4(std::uint32_t add = 0x100) {
    RequestCell c;
    c.opc = Opcode::kLd4;
    c.add = add;
    c.data = Bits(32);
    c.be = Bits::all_ones(4);
    c.eop = true;
    c.src = 0;
    return c;
  }

  // Drives a value for exactly one cycle and steps once more so the
  // checker (a clocked observer) has sampled the transfer.
  void drive_cell(const RequestCell& c) {
    pins.drive_request(c);
    ctx.step();
    pins.idle_request();
    ctx.step();
  }

  void drive_rsp(const ResponseCell& c) {
    pins.drive_response(c);
    ctx.step();
    pins.idle_response();
    ctx.step();
  }

  bool fired(const std::string& rule) const {
    for (const auto& v : checker.violations()) {
      if (v.rule == rule) return true;
    }
    return false;
  }
};

// A port whose node side never grants either channel: every requested cell
// stalls, so the hold and starvation rules see it.
struct StallRig {
  sim::Context ctx;
  stbus::NodeConfig cfg = CheckerRig::make_cfg();
  PortPins pins{ctx, "tb.q", cfg};
  ProtocolChecker checker{ctx, "q", pins, ProtocolType::kType2,
                          ProtocolChecker::Role::kInitiatorPort, 0, &cfg};
  PortAgent agent{ctx, "q", pins, {.checker = &checker}};

  StallRig() { ctx.initialize(); }

  static ResponseCell ok_rsp() {
    ResponseCell r;
    r.data = Bits(32);
    r.eop = true;
    return r;
  }

  // The violations of `rule`, as (cycle, message) pairs.
  std::vector<std::pair<std::uint64_t, std::string>> of(
      const std::string& rule) const {
    std::vector<std::pair<std::uint64_t, std::string>> out;
    for (const auto& v : checker.violations()) {
      if (v.rule == rule) out.emplace_back(v.cycle, v.message);
    }
    return out;
  }
};

TEST(Checker, CleanSingleCellTransaction) {
  CheckerRig rig;
  rig.drive_cell(rig.legal_ld4());
  ResponseCell r;
  r.data = Bits(32);
  r.eop = true;
  rig.drive_rsp(r);
  rig.checker.end_of_test();
  EXPECT_TRUE(rig.checker.clean())
      << rig.checker.violations().front().rule;
}

TEST(Checker, HoldReqFiresOnRetraction) {
  StallRig rig;
  rig.pins.drive_request(CheckerRig::legal_ld4());
  rig.ctx.step(2);      // req=1, gnt=0, sampled by the checker
  rig.pins.idle_request();
  rig.ctx.step(2);      // retracted while ungranted, sampled
  EXPECT_FALSE(rig.of("HOLD_REQ").empty());
}

TEST(Checker, HoldReqFiresOnPayloadChange) {
  StallRig rig;
  RequestCell c = CheckerRig::legal_ld4();
  rig.pins.drive_request(c);
  rig.ctx.step(2);
  c.add = 0x104;  // change address while stalled
  rig.pins.drive_request(c);
  rig.ctx.step(2);
  EXPECT_FALSE(rig.of("HOLD_REQ").empty());
}


TEST(Checker, HoldRspFiresOnPayloadChange) {
  StallRig rig;
  ResponseCell r = StallRig::ok_rsp();
  rig.pins.drive_response(r);
  rig.ctx.step(2);
  r.data.set_byte(0, 0x5a);  // change data while stalled
  rig.pins.drive_response(r);
  rig.ctx.step(2);
  const auto hold = rig.of("HOLD_RSP");
  ASSERT_EQ(hold.size(), 1u);
  EXPECT_EQ(hold[0].second, "response payload changed while ungranted");
}

TEST(Checker, HoldRspFiresOnRetraction) {
  StallRig rig;
  rig.pins.drive_response(StallRig::ok_rsp());
  rig.ctx.step(2);
  rig.pins.idle_response();
  rig.ctx.step(2);
  const auto hold = rig.of("HOLD_RSP");
  ASSERT_EQ(hold.size(), 1u);
  EXPECT_EQ(hold[0].second, "response retracted while ungranted");
}

TEST(Checker, HoldRspQuietWhileHeldUnchanged) {
  StallRig rig;
  rig.checker.set_starvation_limit(0);
  rig.pins.drive_response(StallRig::ok_rsp());
  rig.ctx.step(10);
  EXPECT_TRUE(rig.of("HOLD_RSP").empty());
}

TEST(Checker, RspOpcFiresOnIllegalEncoding) {
  CheckerRig rig;
  rig.drive_cell(rig.legal_ld4());
  ResponseCell r;
  r.opc = static_cast<stbus::RspOpcode>(2);  // r_opc is 2 bits: 2, 3 illegal
  r.data = Bits(32);
  r.eop = true;
  rig.drive_rsp(r);
  EXPECT_TRUE(rig.fired("RSP_OPC"));
  EXPECT_FALSE(rig.fired("RSP_SPUR"));
}

TEST(Checker, ReqOpcFiresOnIllegalEncodingAndSkipsSizeRules) {
  // opc is 6 bits wide but only 16 opcodes exist. Such a cell has no size,
  // so ALIGN, BE and PKT_LEN must stay quiet rather than misreport it.
  for (const std::uint32_t add : {0x102u, 0x0u}) {
    CheckerRig rig;
    auto c = rig.legal_ld4(add);
    c.opc = static_cast<Opcode>(17);
    rig.drive_cell(c);
    ASSERT_TRUE(rig.fired("REQ_OPC")) << add;
    EXPECT_EQ(rig.checker.violations().front().message,
              "illegal opc encoding 17");
    EXPECT_FALSE(rig.fired("ALIGN")) << add;
    EXPECT_FALSE(rig.fired("BE")) << add;
    EXPECT_FALSE(rig.fired("PKT_LEN")) << add;
  }
}

TEST(Checker, ReqOpcPacketEndsOnItsEop) {
  // The unsized packet closes on its eop cell: the next legal packet is
  // checked from its own head.
  CheckerRig rig;
  auto bad = rig.legal_ld4(0x100);
  bad.opc = static_cast<Opcode>(40);
  rig.drive_cell(bad);
  rig.drive_cell(rig.legal_ld4(0x104));
  EXPECT_EQ(rig.checker.violation_count(), 1u)
      << rig.checker.violations().back().rule;
}

// The checker returns at once while both channels are idle now and were
// idle the cycle before. Each rule must still fire on the first active
// cycles that follow an idle stretch.
TEST(Checker, HoldReqRetractionRightAfterIdleStretch) {
  StallRig rig;
  rig.ctx.step(20);  // idle stretch
  rig.pins.drive_request(CheckerRig::legal_ld4());
  rig.ctx.step();    // commits: req rises
  rig.pins.idle_request();
  rig.ctx.step();    // first requested cycle sampled; req falls
  rig.ctx.step();    // the retraction sampled
  const auto hold = rig.of("HOLD_REQ");
  ASSERT_EQ(hold.size(), 1u);
  EXPECT_EQ(hold[0].second, "request retracted while ungranted");
  EXPECT_EQ(hold[0].first, 22u);
}

TEST(Checker, HoldRspChangeRightAfterIdleStretch) {
  StallRig rig;
  rig.ctx.step(20);
  ResponseCell r = StallRig::ok_rsp();
  rig.pins.drive_response(r);
  rig.ctx.step();
  r.tid = 3;
  rig.pins.drive_response(r);
  rig.ctx.step();
  rig.ctx.step();
  const auto hold = rig.of("HOLD_RSP");
  ASSERT_EQ(hold.size(), 1u);
  EXPECT_EQ(hold[0].second, "response payload changed while ungranted");
  EXPECT_EQ(hold[0].first, 22u);
}

TEST(Checker, StarveEpisodesSeparatedByIdleStretches) {
  StallRig rig;
  rig.checker.set_starvation_limit(5);
  const auto c = CheckerRig::legal_ld4();
  auto episode = [&rig, &c](int stalled_cycles) {
    rig.pins.drive_request(c);
    rig.ctx.step(stalled_cycles);
    rig.pins.idle_request();
    rig.ctx.step(10);  // idle stretch: the stall counter must restart
  };
  episode(4);  // below the limit, twice: no accumulation across the gap
  episode(4);
  EXPECT_TRUE(rig.of("STARVE").empty());
  episode(5);  // exactly the limit right after an idle stretch
  episode(7);  // and a second episode reports again
  const auto starve = rig.of("STARVE");
  ASSERT_EQ(starve.size(), 2u);
  EXPECT_EQ(starve[0].second, "request ungranted for 5 cycles");
  EXPECT_EQ(starve[1].second, "request ungranted for 5 cycles");
}

TEST(Checker, AlignFiresOnMisalignedAddress) {
  CheckerRig rig;
  auto c = rig.legal_ld4(0x102);  // LD4 at a 2-byte offset
  c.be = stbus::byte_enables(Opcode::kLd4, 0x102, 4, 0);
  rig.drive_cell(c);
  EXPECT_TRUE(rig.fired("ALIGN"));
  // The address prints as hex after its 0x prefix.
  ASSERT_FALSE(rig.checker.violations().empty());
  EXPECT_NE(rig.checker.violations().front().message.find(
                "address 0x00000102 unaligned"),
            std::string::npos)
      << rig.checker.violations().front().message;
}

TEST(Checker, BeFiresOnWrongLanes) {
  CheckerRig rig;
  auto c = rig.legal_ld4();
  c.opc = Opcode::kLd1;  // LD1 at offset 0 needs lane 0 only
  c.be = Bits::all_ones(4);
  rig.drive_cell(c);
  EXPECT_TRUE(rig.fired("BE"));
}

TEST(Checker, PktLenFiresOnEarlyEop) {
  CheckerRig rig;
  RequestCell c = rig.legal_ld4(0x200);
  c.opc = Opcode::kLd16;  // needs 4 beats on a 4-byte bus
  c.eop = true;           // but claims to finish on beat 1
  rig.drive_cell(c);
  EXPECT_TRUE(rig.fired("PKT_LEN"));
}

TEST(Checker, LckMidFiresOnDroppedLock) {
  CheckerRig rig;
  RequestCell c = rig.legal_ld4(0x200);
  c.opc = Opcode::kLd16;
  c.eop = false;
  c.lck = false;  // mid-packet cells must hold the allocation
  rig.drive_cell(c);
  EXPECT_TRUE(rig.fired("LCK_MID"));
}

TEST(Checker, AddrSeqFiresOnNonIncrementingBeat) {
  CheckerRig rig;
  RequestCell c = rig.legal_ld4(0x200);
  c.opc = Opcode::kLd8;
  c.eop = false;
  c.lck = true;
  rig.drive_cell(c);
  c.add = 0x200;  // should be 0x204
  c.eop = true;
  c.lck = false;
  rig.drive_cell(c);
  EXPECT_TRUE(rig.fired("ADDR_SEQ"));
}

TEST(Checker, OpcStableFiresOnMidPacketChange) {
  CheckerRig rig;
  RequestCell c = rig.legal_ld4(0x200);
  c.opc = Opcode::kLd8;
  c.eop = false;
  c.lck = true;
  rig.drive_cell(c);
  c.opc = Opcode::kSt8;
  c.add = 0x204;
  c.eop = true;
  c.lck = false;
  rig.drive_cell(c);
  EXPECT_TRUE(rig.fired("OPC_STABLE"));
}

TEST(Checker, SrcStableFiresOnWrongPortId) {
  CheckerRig rig(ProtocolType::kType2, /*expected_src=*/1);
  rig.drive_cell(rig.legal_ld4());  // src = 0 but port id is 1
  EXPECT_TRUE(rig.fired("SRC_STABLE"));
}

TEST(Checker, RspSpurFiresOnUnmatchedResponse) {
  CheckerRig rig;
  ResponseCell r;
  r.data = Bits(32);
  r.eop = true;
  rig.drive_rsp(r);
  EXPECT_TRUE(rig.fired("RSP_SPUR"));
}

TEST(Checker, RspMatchFiresOnOutOfOrderType2) {
  CheckerRig rig;
  auto c1 = rig.legal_ld4(0x100);
  c1.tid = 1;
  auto c2 = rig.legal_ld4(0x104);
  c2.tid = 2;
  rig.drive_cell(c1);
  rig.drive_cell(c2);
  ResponseCell r;
  r.data = Bits(32);
  r.eop = true;
  r.tid = 2;  // answers the second first: illegal under Type2
  rig.drive_rsp(r);
  EXPECT_TRUE(rig.fired("RSP_MATCH"));
}

TEST(Checker, TidReuseFiresUnderType3) {
  CheckerRig rig(ProtocolType::kType3);
  auto c = rig.legal_ld4(0x100);
  c.tid = 5;
  rig.drive_cell(c);
  auto c2 = rig.legal_ld4(0x104);
  c2.tid = 5;  // reused while outstanding
  rig.drive_cell(c2);
  EXPECT_TRUE(rig.fired("TID_REUSE"));
}

TEST(Checker, ChunkTgtFiresOnTargetSwitch) {
  CheckerRig rig;
  auto c = rig.legal_ld4(0x100);  // target 0
  c.lck = true;                   // opens a chunk
  rig.drive_cell(c);
  rig.drive_cell(rig.legal_ld4(0x10000));  // target 1: chunk broken
  EXPECT_TRUE(rig.fired("CHUNK_TGT"));
}

TEST(Checker, EotFiresOnMissingResponses) {
  CheckerRig rig;
  rig.drive_cell(rig.legal_ld4());
  rig.checker.end_of_test();
  EXPECT_TRUE(rig.fired("EOT"));
}

TEST(Checker, EotFiresOnOpenChunk) {
  CheckerRig rig;
  auto c = rig.legal_ld4();
  c.lck = true;
  rig.drive_cell(c);
  ResponseCell r;
  r.data = Bits(32);
  r.eop = true;
  rig.drive_rsp(r);
  rig.checker.end_of_test();
  EXPECT_TRUE(rig.fired("EOT"));
}

TEST(Checker, StarvationWatchdogFires) {
  StallRig rig;
  rig.checker.set_starvation_limit(10);
  rig.pins.drive_request(CheckerRig::legal_ld4());
  rig.ctx.step(20);  // never granted
  EXPECT_FALSE(rig.of("STARVE").empty());
  // One report per episode, not per cycle.
  EXPECT_EQ(rig.checker.violation_count(), 1u);
}

TEST(Checker, StarvationWatchdogQuietBelowLimit) {
  StallRig rig;
  rig.checker.set_starvation_limit(50);
  rig.pins.drive_request(CheckerRig::legal_ld4());
  rig.ctx.step(20);
  rig.pins.gnt.write(true);
  rig.ctx.step(2);
  EXPECT_TRUE(rig.of("STARVE").empty());
}

TEST(Checker, ViolationCountKeepsCountingPastStorageCap) {
  CheckerRig rig;
  for (int i = 0; i < 150; ++i) {
    auto c = rig.legal_ld4(0x102);  // misaligned every time
    c.be = stbus::byte_enables(Opcode::kLd4, 0x102, 4, 0);
    rig.drive_cell(c);
    ResponseCell r;
    r.data = Bits(32);
    r.eop = true;
    rig.drive_rsp(r);
  }
  EXPECT_GE(rig.checker.violation_count(), 150u);
  EXPECT_LE(rig.checker.violations().size(), 100u);
}

}  // namespace
}  // namespace crve

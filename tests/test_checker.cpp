// Negative tests for the protocol checker: each rule must fire on a
// hand-crafted violation driven straight onto a pin bundle.
#include <gtest/gtest.h>

#include "sim/context.h"
#include "stbus/packet.h"
#include "stbus/pins.h"
#include "verif/protocol_checker.h"

namespace crve {
namespace {

using stbus::Opcode;
using stbus::PortPins;
using stbus::ProtocolType;
using stbus::RequestCell;
using stbus::ResponseCell;
using verif::ProtocolChecker;

// Drives scripted cell sequences on a lone pin bundle with a checker
// attached; the "node side" grants everything.
struct CheckerRig {
  sim::Context ctx;
  stbus::NodeConfig cfg;
  PortPins pins;
  ProtocolChecker checker;

  CheckerRig(ProtocolType type = ProtocolType::kType2, int expected_src = 0)
      : pins(ctx, "tb.p", make_cfg()),
        checker(ctx, "p", pins, type, ProtocolChecker::Role::kInitiatorPort,
                expected_src, &cfg) {
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

  RequestCell legal_ld4(std::uint32_t add = 0x100) {
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
  // Environment that never grants.
  sim::Context ctx;
  auto cfg = CheckerRig::make_cfg();
  PortPins pins(ctx, "tb.q", cfg);
  ProtocolChecker chk(ctx, "q", pins, ProtocolType::kType2,
                      ProtocolChecker::Role::kInitiatorPort, 0, &cfg);
  ctx.initialize();
  RequestCell c;
  c.opc = Opcode::kLd4;
  c.add = 0x100;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = true;
  pins.drive_request(c);
  ctx.step(2);      // req=1, gnt=0, sampled by the checker
  pins.idle_request();
  ctx.step(2);      // retracted while ungranted, sampled
  bool found = false;
  for (const auto& v : chk.violations()) found |= v.rule == "HOLD_REQ";
  EXPECT_TRUE(found);
}

TEST(Checker, HoldReqFiresOnPayloadChange) {
  sim::Context ctx;
  auto cfg = CheckerRig::make_cfg();
  PortPins pins(ctx, "tb.q", cfg);
  ProtocolChecker chk(ctx, "q", pins, ProtocolType::kType2,
                      ProtocolChecker::Role::kInitiatorPort, 0, &cfg);
  ctx.initialize();
  RequestCell c;
  c.opc = Opcode::kLd4;
  c.add = 0x100;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = true;
  pins.drive_request(c);
  ctx.step(2);
  c.add = 0x104;  // change address while stalled
  pins.drive_request(c);
  ctx.step(2);
  bool found = false;
  for (const auto& v : chk.violations()) found |= v.rule == "HOLD_REQ";
  EXPECT_TRUE(found);
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
  sim::Context ctx;
  auto cfg = CheckerRig::make_cfg();
  PortPins pins(ctx, "tb.q", cfg);
  ProtocolChecker chk(ctx, "q", pins, ProtocolType::kType2,
                      ProtocolChecker::Role::kInitiatorPort, 0, &cfg);
  chk.set_starvation_limit(10);
  ctx.initialize();
  RequestCell c;
  c.opc = Opcode::kLd4;
  c.add = 0x100;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = true;
  pins.drive_request(c);
  ctx.step(20);  // never granted
  bool found = false;
  for (const auto& v : chk.violations()) found |= v.rule == "STARVE";
  EXPECT_TRUE(found);
  // One report per episode, not per cycle.
  EXPECT_EQ(chk.violation_count(), 1u);
}

TEST(Checker, StarvationWatchdogQuietBelowLimit) {
  sim::Context ctx;
  auto cfg = CheckerRig::make_cfg();
  PortPins pins(ctx, "tb.q", cfg);
  ProtocolChecker chk(ctx, "q", pins, ProtocolType::kType2,
                      ProtocolChecker::Role::kInitiatorPort, 0, &cfg);
  chk.set_starvation_limit(50);
  ctx.initialize();
  RequestCell c;
  c.opc = Opcode::kLd4;
  c.add = 0x100;
  c.data = Bits(32);
  c.be = Bits::all_ones(4);
  c.eop = true;
  pins.drive_request(c);
  ctx.step(20);
  pins.gnt.write(true);
  ctx.step(2);
  for (const auto& v : chk.violations()) {
    EXPECT_NE(v.rule, "STARVE") << v.message;
  }
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

// Tests for the converter bridges (RTL and BCA views) and the register
// decoder, using a direct master + register-decoder slave around the DUT.
#include <gtest/gtest.h>

#include "bca/bridge.h"
#include "common/rng.h"
#include "param_label.h"
#include "rtl/register_decoder.h"
#include "rtl/size_converter.h"
#include "rtl/type_converter.h"
#include "sim/context.h"
#include "stbus/packet.h"
#include "stbus/pins.h"
#include "verif/agent.h"
#include "verif/bfm_target.h"

namespace crve {
namespace {

using stbus::Opcode;
using stbus::PortPins;
using stbus::ProtocolType;
using stbus::Request;
using stbus::RspOpcode;

// Minimal blocking master: issues one Request at a time on a pin bundle and
// collects the response. Pure test scaffolding (the real BFM is heavier).
struct SimpleMaster {
  sim::Context& ctx;
  PortPins& pins;
  ProtocolType type;

  struct Result {
    std::vector<std::uint8_t> rdata;
    RspOpcode status = RspOpcode::kOk;
  };

  Result issue(const Request& req, int max_cycles = 200) {
    ctx.initialize();  // idempotent; keeps write/commit phases aligned
    auto cells = stbus::build_request(req, pins.bus_bytes, type);
    const int rsp_cells =
        stbus::response_cells(req.opc, pins.bus_bytes, type);
    std::size_t ci = 0;
    std::vector<stbus::ResponseCell> rsp;
    pins.r_gnt.write(true);
    for (int c = 0; c < max_cycles; ++c) {
      if (ci < cells.size()) {
        pins.drive_request(cells[ci]);
      } else {
        pins.idle_request();
      }
      ctx.step();
      if (ci < cells.size() && pins.request_fires()) ++ci;
      if (pins.response_fires()) rsp.push_back(pins.sample_response());
      if (static_cast<int>(rsp.size()) == rsp_cells) break;
    }
    EXPECT_EQ(static_cast<int>(rsp.size()), rsp_cells) << "master timeout";
    Result r;
    for (const auto& cell : rsp) {
      if (cell.opc != RspOpcode::kOk) r.status = RspOpcode::kError;
    }
    if ((stbus::is_load(req.opc) || stbus::is_atomic(req.opc)) &&
        r.status == RspOpcode::kOk) {
      r.rdata = stbus::extract_response_data(req.opc, req.add, rsp,
                                             pins.bus_bytes);
    }
    // Commit the idle state and let the slave retire the final handshake,
    // so back-to-back issues do not double-sample the last cell.
    pins.idle_request();
    ctx.step();
    return r;
  }
};

Request st(Opcode opc, std::uint32_t add, std::vector<std::uint8_t> data) {
  Request r;
  r.opc = opc;
  r.add = add;
  r.wdata = std::move(data);
  return r;
}

Request ld(Opcode opc, std::uint32_t add) {
  Request r;
  r.opc = opc;
  r.add = add;
  return r;
}

// --------------------------------------------------------------------------
// RegisterDecoder standalone
// --------------------------------------------------------------------------

struct RegRig {
  sim::Context ctx;
  PortPins pins{ctx, "tb.reg", 4};
  rtl::RegisterDecoder dec{ctx, "regdec", pins, ProtocolType::kType2,
                           0x8000, 8};
  SimpleMaster master{ctx, pins, ProtocolType::kType2};
};

TEST(RegisterDecoder, WriteThenRead) {
  RegRig rig;
  auto w = rig.master.issue(st(Opcode::kSt4, 0x8008, {0x44, 0x33, 0x22, 0x11}));
  EXPECT_EQ(w.status, RspOpcode::kOk);
  EXPECT_EQ(rig.dec.reg(2), 0x11223344u);
  auto r = rig.master.issue(ld(Opcode::kLd4, 0x8008));
  EXPECT_EQ(r.status, RspOpcode::kOk);
  ASSERT_EQ(r.rdata.size(), 4u);
  EXPECT_EQ(r.rdata[0], 0x44);
  EXPECT_EQ(r.rdata[3], 0x11);
}

TEST(RegisterDecoder, RmwIsAtomicOr) {
  RegRig rig;
  rig.dec.set_reg(0, 0x0f);
  auto r = rig.master.issue(st(Opcode::kRmw4, 0x8000, {0xf0, 0, 0, 0}));
  EXPECT_EQ(r.status, RspOpcode::kOk);
  EXPECT_EQ(rig.dec.reg(0), 0xffu);
}

TEST(RegisterDecoder, SwapReturnsOldValue) {
  RegRig rig;
  rig.dec.set_reg(1, 0xabcd);
  SimpleMaster m{rig.ctx, rig.pins, ProtocolType::kType2};
  Request req = st(Opcode::kSwap4, 0x8004, {0x78, 0x56, 0x34, 0x12});
  // SWAP carries data and returns the old value.
  auto cells = stbus::build_request(req, 4, ProtocolType::kType2);
  (void)cells;
  struct SimpleMaster::Result r = m.issue(req);
  EXPECT_EQ(rig.dec.reg(1), 0x12345678u);
  ASSERT_EQ(r.rdata.size(), 4u);
  EXPECT_EQ(r.rdata[0], 0xcd);
  EXPECT_EQ(r.rdata[1], 0xab);
}

TEST(RegisterDecoder, OutOfRangeErrors) {
  RegRig rig;
  auto r = rig.master.issue(ld(Opcode::kLd4, 0x8000 + 8 * 4));
  EXPECT_EQ(r.status, RspOpcode::kError);
  auto r2 = rig.master.issue(ld(Opcode::kLd4, 0x7ffc));
  EXPECT_EQ(r2.status, RspOpcode::kError);
}

TEST(RegisterDecoder, NonWordSizeErrors) {
  RegRig rig;
  auto r = rig.master.issue(ld(Opcode::kLd8, 0x8000));
  EXPECT_EQ(r.status, RspOpcode::kError);
}

// --------------------------------------------------------------------------
// Bridges: master -> converter -> register decoder
// --------------------------------------------------------------------------

enum class BridgeImpl { kRtl, kBca };

struct ConvParam {
  BridgeImpl impl;
  int up_bytes;
  ProtocolType up_type;
  int dn_bytes;
  ProtocolType dn_type;
};

void PrintTo(const ConvParam& p, std::ostream* os) {
  test::print_zero_padded(p, os, &ConvParam::impl, &ConvParam::up_bytes,
                          &ConvParam::up_type, &ConvParam::dn_bytes,
                          &ConvParam::dn_type);
}

class ConverterRig : public ::testing::TestWithParam<ConvParam> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    up = std::make_unique<PortPins>(ctx, "tb.up", p.up_bytes);
    dn = std::make_unique<PortPins>(ctx, "tb.dn", p.dn_bytes);
    if (p.impl == BridgeImpl::kRtl) {
      if (p.up_type == p.dn_type) {
        rtl_bridge = std::make_unique<rtl::SizeConverter>(ctx, "conv", *up,
                                                          *dn, p.up_type);
      } else {
        rtl_bridge = std::make_unique<rtl::TypeConverter>(
            ctx, "conv", *up, p.up_type, *dn, p.dn_type);
      }
    } else {
      bca_bridge = std::make_unique<bca::Bridge>(ctx, "conv", *up, p.up_type,
                                                 *dn, p.dn_type);
    }
    dec = std::make_unique<rtl::RegisterDecoder>(ctx, "regdec", *dn,
                                                 p.dn_type, 0x0, 64);
    master = std::make_unique<SimpleMaster>(ctx, *up, p.up_type);
  }

  sim::Context ctx;
  std::unique_ptr<PortPins> up, dn;
  std::unique_ptr<rtl::Bridge> rtl_bridge;
  std::unique_ptr<bca::Bridge> bca_bridge;
  std::unique_ptr<rtl::RegisterDecoder> dec;
  std::unique_ptr<SimpleMaster> master;
};

TEST_P(ConverterRig, WriteReadThroughConverter) {
  auto w = master->issue(st(Opcode::kSt4, 0x10, {0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(w.status, RspOpcode::kOk);
  EXPECT_EQ(dec->reg(4), 0xefbeaddeu);
  auto r = master->issue(ld(Opcode::kLd4, 0x10));
  EXPECT_EQ(r.status, RspOpcode::kOk);
  ASSERT_EQ(r.rdata.size(), 4u);
  EXPECT_EQ(r.rdata[0], 0xde);
  EXPECT_EQ(r.rdata[3], 0xef);
}

TEST_P(ConverterRig, ErrorPropagatesUpstream) {
  auto r = master->issue(ld(Opcode::kLd4, 0x1000));  // out of range
  EXPECT_EQ(r.status, RspOpcode::kError);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConverterRig,
    ::testing::Values(
        // Size converters (same type, different widths) — paper's 64/32.
        ConvParam{BridgeImpl::kRtl, 8, ProtocolType::kType2, 4,
                  ProtocolType::kType2},
        ConvParam{BridgeImpl::kRtl, 4, ProtocolType::kType2, 8,
                  ProtocolType::kType2},
        ConvParam{BridgeImpl::kBca, 8, ProtocolType::kType2, 4,
                  ProtocolType::kType2},
        // Type converters — paper's t2/t3.
        ConvParam{BridgeImpl::kRtl, 4, ProtocolType::kType2, 4,
                  ProtocolType::kType3},
        ConvParam{BridgeImpl::kRtl, 4, ProtocolType::kType3, 4,
                  ProtocolType::kType2},
        ConvParam{BridgeImpl::kBca, 4, ProtocolType::kType3, 4,
                  ProtocolType::kType2},
        // Combined size+type conversion.
        ConvParam{BridgeImpl::kRtl, 8, ProtocolType::kType3, 4,
                  ProtocolType::kType2},
        ConvParam{BridgeImpl::kBca, 8, ProtocolType::kType3, 4,
                  ProtocolType::kType2}));

TEST(BridgeValidation, SizeConverterRejectsEqualWidths) {
  sim::Context ctx;
  PortPins a(ctx, "a", 4), b(ctx, "b", 4);
  EXPECT_THROW(rtl::SizeConverter(ctx, "c", a, b, ProtocolType::kType2),
               std::invalid_argument);
}

TEST(BridgeValidation, TypeConverterRejectsEqualTypes) {
  sim::Context ctx;
  PortPins a(ctx, "a", 4), b(ctx, "b", 8);
  EXPECT_THROW(rtl::TypeConverter(ctx, "c", a, ProtocolType::kType2, b,
                                  ProtocolType::kType2),
               std::invalid_argument);
}

TEST(BcaBridgeFault, EndiannessBugReversesWideLoads) {
  sim::Context ctx;
  PortPins up(ctx, "tb.up", 8), dn(ctx, "tb.dn", 4);
  bca::Faults faults;
  faults.size_conv_endianness = true;
  bca::Bridge bridge(ctx, "conv", up, ProtocolType::kType2, dn,
                     ProtocolType::kType2, faults);
  verif::TargetBfm tgt(ctx, "t", dn, ProtocolType::kType2, {}, Rng(1));
  verif::PortAgent agent(ctx, "t", dn, {.target = &tgt});
  SimpleMaster master{ctx, up, ProtocolType::kType2};
  // Two adjacent words hold distinct patterns.
  for (std::uint32_t i = 0; i < 4; ++i) tgt.poke(i, 0x11);
  for (std::uint32_t i = 4; i < 8; ++i) tgt.poke(i, 0x22);
  auto r = master.issue(ld(Opcode::kLd8, 0x0));
  ASSERT_EQ(r.rdata.size(), 8u);
  // The bug swaps the two 4-byte halves.
  EXPECT_EQ(r.rdata[0], 0x22);
  EXPECT_EQ(r.rdata[4], 0x11);
}

TEST(BcaBridgeFault, CleanBridgeKeepsWordOrder) {
  sim::Context ctx;
  PortPins up(ctx, "tb.up", 8), dn(ctx, "tb.dn", 4);
  bca::Bridge bridge(ctx, "conv", up, ProtocolType::kType2, dn,
                     ProtocolType::kType2, {});
  verif::TargetBfm tgt(ctx, "t", dn, ProtocolType::kType2, {}, Rng(1));
  verif::PortAgent agent(ctx, "t", dn, {.target = &tgt});
  SimpleMaster master{ctx, up, ProtocolType::kType2};
  for (std::uint32_t i = 0; i < 4; ++i) tgt.poke(i, 0x11);
  for (std::uint32_t i = 4; i < 8; ++i) tgt.poke(i, 0x22);
  auto r = master.issue(ld(Opcode::kLd8, 0x0));
  ASSERT_EQ(r.rdata.size(), 8u);
  EXPECT_EQ(r.rdata[0], 0x11);
  EXPECT_EQ(r.rdata[4], 0x22);
}

}  // namespace
}  // namespace crve

// Unit tests for the protocol layer: opcodes, configuration, packets.
#include <gtest/gtest.h>

#include "param_label.h"
#include "stbus/config.h"
#include "stbus/opcode.h"
#include "stbus/packet.h"

namespace crve::stbus {
namespace {

TEST(Opcode, SizesAndKinds) {
  EXPECT_EQ(size_bytes(Opcode::kLd1), 1);
  EXPECT_EQ(size_bytes(Opcode::kLd64), 64);
  EXPECT_EQ(size_bytes(Opcode::kSt16), 16);
  EXPECT_EQ(size_bytes(Opcode::kRmw4), 4);
  EXPECT_TRUE(is_load(Opcode::kLd8));
  EXPECT_FALSE(is_load(Opcode::kSt8));
  EXPECT_TRUE(is_store(Opcode::kSt32));
  EXPECT_TRUE(is_atomic(Opcode::kSwap4));
  EXPECT_FALSE(is_atomic(Opcode::kLd4));
}

TEST(Opcode, OfSizeFactories) {
  for (int s = 1; s <= 64; s *= 2) {
    EXPECT_EQ(size_bytes(load_of_size(s)), s);
    EXPECT_EQ(size_bytes(store_of_size(s)), s);
  }
  EXPECT_THROW(load_of_size(3), std::invalid_argument);
  EXPECT_THROW(store_of_size(128), std::invalid_argument);
}

TEST(Opcode, Names) {
  EXPECT_EQ(to_string(Opcode::kLd16), "LD16");
  EXPECT_EQ(to_string(Opcode::kSt1), "ST1");
  EXPECT_EQ(to_string(Opcode::kRmw4), "RMW4");
  EXPECT_EQ(to_string(RspOpcode::kError), "ERROR");
}

TEST(NodeConfig, DefaultsNormalize) {
  NodeConfig cfg;
  cfg.n_initiators = 4;
  cfg.n_targets = 3;
  cfg.validate_and_normalize();
  EXPECT_EQ(cfg.address_map.size(), 3u);
  EXPECT_EQ(cfg.priorities.size(), 4u);
  EXPECT_EQ(cfg.latency_deadline.size(), 4u);
  EXPECT_EQ(cfg.bandwidth_quota.size(), 4u);
}

TEST(NodeConfig, Validation) {
  NodeConfig cfg;
  cfg.n_initiators = 0;
  EXPECT_THROW(cfg.validate_and_normalize(), std::invalid_argument);
  cfg.n_initiators = 33;
  EXPECT_THROW(cfg.validate_and_normalize(), std::invalid_argument);
  cfg.n_initiators = 2;
  cfg.bus_bytes = 3;
  EXPECT_THROW(cfg.validate_and_normalize(), std::invalid_argument);
  cfg.bus_bytes = 64;
  EXPECT_THROW(cfg.validate_and_normalize(), std::invalid_argument);
  cfg.bus_bytes = 4;
  cfg.type = ProtocolType::kType1;
  EXPECT_THROW(cfg.validate_and_normalize(), std::invalid_argument);
}

TEST(NodeConfig, Routing) {
  NodeConfig cfg;
  cfg.n_targets = 2;
  cfg.address_map = {{0x1000, 0x100, 0}, {0x2000, 0x100, 1}};
  cfg.validate_and_normalize();
  EXPECT_EQ(cfg.route(0x1000), 0);
  EXPECT_EQ(cfg.route(0x10ff), 0);
  EXPECT_EQ(cfg.route(0x1100), -1);
  EXPECT_EQ(cfg.route(0x2050), 1);
  EXPECT_EQ(cfg.route(0), -1);
}

TEST(NodeConfig, Resources) {
  NodeConfig cfg;
  cfg.n_targets = 4;
  cfg.arch = Architecture::kSharedBus;
  cfg.validate_and_normalize();
  EXPECT_EQ(cfg.num_resources(), 1);
  EXPECT_EQ(cfg.resource_of_target(3), 0);

  cfg.arch = Architecture::kFullCrossbar;
  EXPECT_EQ(cfg.num_resources(), 4);
  EXPECT_EQ(cfg.resource_of_target(3), 3);

  cfg.arch = Architecture::kPartialCrossbar;
  cfg.xbar_group.clear();
  cfg.validate_and_normalize();  // default pairs
  EXPECT_EQ(cfg.num_resources(), 2);
  EXPECT_EQ(cfg.resource_of_target(0), cfg.resource_of_target(1));
  EXPECT_NE(cfg.resource_of_target(1), cfg.resource_of_target(2));
}

TEST(NodeConfig, SparseXbarGroupsRemappedDense) {
  // Regression (found by fuzzing): sparse group ids must not index past the
  // per-resource arrays.
  NodeConfig cfg;
  cfg.n_targets = 5;
  cfg.arch = Architecture::kPartialCrossbar;
  cfg.xbar_group = {3, 3, 4, 4, 2};
  cfg.validate_and_normalize();
  EXPECT_EQ(cfg.num_resources(), 3);
  EXPECT_EQ(cfg.xbar_group, (std::vector<int>{1, 1, 2, 2, 0}));
  for (int t = 0; t < 5; ++t) {
    EXPECT_LT(cfg.resource_of_target(t), cfg.num_resources());
  }
}

TEST(Packet, CellCountsType2) {
  EXPECT_EQ(request_cells(Opcode::kLd16, 4, ProtocolType::kType2), 4);
  EXPECT_EQ(response_cells(Opcode::kLd16, 4, ProtocolType::kType2), 4);
  EXPECT_EQ(request_cells(Opcode::kSt16, 4, ProtocolType::kType2), 4);
  EXPECT_EQ(response_cells(Opcode::kSt16, 4, ProtocolType::kType2), 4);
  EXPECT_EQ(request_cells(Opcode::kLd1, 4, ProtocolType::kType2), 1);
}

TEST(Packet, CellCountsType3Asymmetric) {
  EXPECT_EQ(request_cells(Opcode::kLd16, 4, ProtocolType::kType3), 1);
  EXPECT_EQ(response_cells(Opcode::kLd16, 4, ProtocolType::kType3), 4);
  EXPECT_EQ(request_cells(Opcode::kSt16, 4, ProtocolType::kType3), 4);
  EXPECT_EQ(response_cells(Opcode::kSt16, 4, ProtocolType::kType3), 1);
}

TEST(Packet, AtomicsSingleCell) {
  for (auto t : {ProtocolType::kType2, ProtocolType::kType3}) {
    EXPECT_EQ(request_cells(Opcode::kRmw4, 8, t), 1);
    EXPECT_EQ(response_cells(Opcode::kSwap4, 8, t), 1);
  }
}

TEST(Packet, ByteEnablesSubBus) {
  const Bits be = byte_enables(Opcode::kLd2, 0x1006, 8, 0);
  EXPECT_EQ(be.width(), 8);
  EXPECT_FALSE(be.bit(5));
  EXPECT_TRUE(be.bit(6));
  EXPECT_TRUE(be.bit(7));
}

TEST(Packet, ByteEnablesHighAddresses) {
  // Addresses above INT_MAX must not wrap the lane computation (regression:
  // decode-error windows live at 0xF0000000).
  const Bits be = byte_enables(Opcode::kLd1, 0xf00077f1u, 4, 0);
  EXPECT_TRUE(be.bit(1));
  EXPECT_FALSE(be.bit(0));
  Request req;
  req.opc = Opcode::kSt2;
  req.add = 0xf0007702u;
  req.wdata = {0xaa, 0xbb};
  const auto cells = build_request(req, 4, ProtocolType::kType2);
  EXPECT_EQ(cells[0].data.byte(2), 0xaa);
  EXPECT_EQ(extract_request_data(Opcode::kSt2, req.add, cells, 4), req.wdata);
}

TEST(Packet, ByteEnablesFullBus) {
  EXPECT_EQ(byte_enables(Opcode::kLd8, 0x1000, 8, 0), Bits::all_ones(8));
  EXPECT_EQ(byte_enables(Opcode::kLd32, 0x1000, 8, 3), Bits::all_ones(8));
}

TEST(Packet, Alignment) {
  EXPECT_TRUE(aligned(Opcode::kLd4, 0x1004));
  EXPECT_FALSE(aligned(Opcode::kLd4, 0x1002));
  EXPECT_TRUE(aligned(Opcode::kLd64, 0x1040));
  EXPECT_FALSE(aligned(Opcode::kLd64, 0x1020));
  EXPECT_TRUE(aligned(Opcode::kLd1, 0x1003));
}

TEST(Packet, BuildRequestStoreMultiCell) {
  Request req;
  req.opc = Opcode::kSt8;
  req.add = 0x100;
  req.wdata = {1, 2, 3, 4, 5, 6, 7, 8};
  req.src = 3;
  req.tid = 9;
  const auto cells = build_request(req, 4, ProtocolType::kType2);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].add, 0x100u);
  EXPECT_EQ(cells[1].add, 0x104u);
  EXPECT_FALSE(cells[0].eop);
  EXPECT_TRUE(cells[0].lck);  // mid-packet holds allocation
  EXPECT_TRUE(cells[1].eop);
  EXPECT_FALSE(cells[1].lck);
  EXPECT_EQ(cells[0].data.byte(0), 1);
  EXPECT_EQ(cells[1].data.byte(3), 8);
  EXPECT_EQ(cells[0].src, 3);
  EXPECT_EQ(cells[1].tid, 9);
}

TEST(Packet, BuildRequestSubBusLanePlacement) {
  Request req;
  req.opc = Opcode::kSt2;
  req.add = 0x106;  // lanes 6,7 of an 8-byte bus
  req.wdata = {0xaa, 0xbb};
  const auto cells = build_request(req, 8, ProtocolType::kType2);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].data.byte(6), 0xaa);
  EXPECT_EQ(cells[0].data.byte(7), 0xbb);
  EXPECT_TRUE(cells[0].be.bit(6));
  EXPECT_FALSE(cells[0].be.bit(0));
}

TEST(Packet, BuildRequestChunkFlagOnEop) {
  Request req;
  req.opc = Opcode::kSt8;
  req.add = 0;
  req.wdata.assign(8, 0);
  req.lck = true;
  const auto cells = build_request(req, 4, ProtocolType::kType2);
  EXPECT_TRUE(cells.back().eop);
  EXPECT_TRUE(cells.back().lck);  // chunk continues past the packet
}

TEST(Packet, BuildRequestValidatesData) {
  Request req;
  req.opc = Opcode::kSt4;
  req.wdata = {1, 2};  // wrong size
  EXPECT_THROW(build_request(req, 4, ProtocolType::kType2),
               std::invalid_argument);
}

TEST(Packet, ResponseRoundTripLoad) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 16; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const auto cells = build_response(Opcode::kLd16, 0x200, data,
                                    RspOpcode::kOk, 4, ProtocolType::kType2,
                                    1, 2);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_TRUE(cells.back().eop);
  const auto back = extract_response_data(Opcode::kLd16, 0x200, cells, 4);
  EXPECT_EQ(back, data);
}

TEST(Packet, ResponseSubBusLanes) {
  const std::vector<std::uint8_t> data = {0x42};
  const auto cells = build_response(Opcode::kLd1, 0x203, data, RspOpcode::kOk,
                                    4, ProtocolType::kType2, 0, 0);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].data.byte(3), 0x42);
  const auto back = extract_response_data(Opcode::kLd1, 0x203, cells, 4);
  EXPECT_EQ(back, data);
}

TEST(Packet, RequestDataRoundTrip) {
  Request req;
  req.opc = Opcode::kSt32;
  req.add = 0x400;
  for (int i = 0; i < 32; ++i) {
    req.wdata.push_back(static_cast<std::uint8_t>(i * 3));
  }
  const auto cells = build_request(req, 8, ProtocolType::kType3);
  const auto back = extract_request_data(Opcode::kSt32, 0x400, cells, 8);
  EXPECT_EQ(back, req.wdata);
}

// Property sweep: every (opcode, bus width, type) combination round-trips
// data and produces consistent cell counts.
struct PacketParam {
  Opcode opc;
  int bus;
  ProtocolType type;
};

void PrintTo(const PacketParam& p, std::ostream* os) {
  test::print_zero_padded(p, os, &PacketParam::opc, &PacketParam::bus,
                          &PacketParam::type);
}

class PacketSweep : public ::testing::TestWithParam<PacketParam> {};

TEST_P(PacketSweep, BuildMatchesDeclaredCounts) {
  const auto [opc, bus, type] = GetParam();
  Request req;
  req.opc = opc;
  req.add = 0x10000;  // aligned for every size
  const int size = size_bytes(opc);
  if (is_store(opc) || is_atomic(opc)) {
    for (int i = 0; i < size; ++i) {
      req.wdata.push_back(static_cast<std::uint8_t>(i ^ 0x5a));
    }
  }
  if (is_atomic(opc) && size > bus) {
    // Atomics may not straddle beats; builders must reject them.
    EXPECT_THROW(build_request(req, bus, type), std::invalid_argument);
    return;
  }
  const auto cells = build_request(req, bus, type);
  EXPECT_EQ(static_cast<int>(cells.size()), request_cells(opc, bus, type));
  EXPECT_TRUE(cells.back().eop);
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    EXPECT_FALSE(cells[i].eop);
    EXPECT_TRUE(cells[i].lck);
  }
  if (!req.wdata.empty()) {
    EXPECT_EQ(extract_request_data(opc, req.add, cells, bus), req.wdata);
  }
  // Response round-trip.
  std::vector<std::uint8_t> rdata;
  if (is_load(opc) || is_atomic(opc)) {
    for (int i = 0; i < size; ++i) {
      rdata.push_back(static_cast<std::uint8_t>(i + 1));
    }
  }
  const auto rsp = build_response(opc, req.add, rdata, RspOpcode::kOk, bus,
                                  type, 0, 0);
  EXPECT_EQ(static_cast<int>(rsp.size()), response_cells(opc, bus, type));
  if (!rdata.empty()) {
    EXPECT_EQ(extract_response_data(opc, req.add, rsp, bus), rdata);
  }
}

std::vector<PacketParam> packet_params() {
  std::vector<PacketParam> out;
  for (int o = 0; o < kNumOpcodes; ++o) {
    for (int bus : {1, 4, 8, 32}) {
      for (auto t : {ProtocolType::kType2, ProtocolType::kType3}) {
        out.push_back({static_cast<Opcode>(o), bus, t});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllShapes, PacketSweep,
                         ::testing::ValuesIn(packet_params()));

}  // namespace
}  // namespace crve::stbus

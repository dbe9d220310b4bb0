// Tests for the TLM view and the reference-model checker built on it.
#include <gtest/gtest.h>

#include "common/mem_pattern.h"
#include "common/rng.h"
#include "tlm/model.h"
#include "verif/testbench.h"
#include "verif/tests.h"

namespace crve {
namespace {

using stbus::NodeConfig;
using stbus::Opcode;
using stbus::Request;
using stbus::RspOpcode;

NodeConfig tcfg() {
  NodeConfig cfg;
  cfg.n_initiators = 2;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.validate_and_normalize();
  return cfg;
}

Request make_st4(std::uint32_t add, std::uint32_t v) {
  Request r;
  r.opc = Opcode::kSt4;
  r.add = add;
  for (int i = 0; i < 4; ++i) {
    r.wdata.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return r;
}

TEST(TlmMemory, DefaultPatternMatchesTargetBfm) {
  SparseMemory mem(0x5a5a);
  for (std::uint32_t a : {0u, 7u, 0x1234u, 0xf0001234u}) {
    EXPECT_EQ(mem.read(a), default_mem_byte(a, 0x5a5a));
  }
  mem.write(5, 0x99);
  EXPECT_EQ(mem.read(5), 0x99);
}

TEST(SparseMemory, UntouchedBytesReadThePattern) {
  SparseMemory mem(0x1234);
  mem.write(0x100, 0xab);  // creates the line 0x100..0x13f
  for (std::uint32_t a = 0xc0; a < 0x180; ++a) {
    if (a == 0x100) continue;
    EXPECT_EQ(mem.read(a), default_mem_byte(a, 0x1234)) << a;
  }
  EXPECT_EQ(mem.read(0x100), 0xab);
  EXPECT_EQ(mem.read(0xffffffffu), default_mem_byte(0xffffffffu, 0x1234));
}

TEST(SparseMemory, WritesPersistAcrossLineBoundaries) {
  SparseMemory mem;
  // 0x3c..0x83 spans three lines; 0xffffffc0.. is the top of the space.
  for (std::uint32_t a = 0x3c; a < 0x84; ++a) {
    mem.write(a, static_cast<std::uint8_t>(a * 7));
  }
  for (std::uint32_t a = 0xfffffff8u; a != 0; ++a) {
    mem.write(a, static_cast<std::uint8_t>(a));
  }
  for (std::uint32_t a = 0x3c; a < 0x84; ++a) {
    EXPECT_EQ(mem.read(a), static_cast<std::uint8_t>(a * 7)) << a;
  }
  for (std::uint32_t a = 0xfffffff8u; a != 0; ++a) {
    EXPECT_EQ(mem.read(a), static_cast<std::uint8_t>(a)) << a;
  }
  EXPECT_EQ(mem.read(0x3b), default_mem_byte(0x3b, 0x5a5a));
  EXPECT_EQ(mem.read(0x84), default_mem_byte(0x84, 0x5a5a));
}

TEST(SparseMemory, CachedLineSurvivesRehash) {
  SparseMemory mem;
  mem.write(0x40, 0x11);
  ASSERT_EQ(mem.read(0x41), default_mem_byte(0x41, 0x5a5a));  // cache 0x40
  // Thousands of new lines force the map to rehash many times; every read
  // of the first line in between must still see its bytes.
  for (std::uint32_t k = 1; k <= 4096; ++k) {
    mem.write(0x40 + k * SparseMemory::kLineBytes,
              static_cast<std::uint8_t>(k));
    ASSERT_EQ(mem.read(0x40), 0x11) << k;
    mem.write(0x42, static_cast<std::uint8_t>(k));
    ASSERT_EQ(mem.read(0x42), static_cast<std::uint8_t>(k)) << k;
  }
  for (std::uint32_t k = 1; k <= 4096; ++k) {
    ASSERT_EQ(mem.read(0x40 + k * SparseMemory::kLineBytes),
              static_cast<std::uint8_t>(k));
  }
  // A copy reads its own lines, not the source's through a stale cache.
  SparseMemory copy = mem;
  mem.write(0x40, 0x22);
  EXPECT_EQ(copy.read(0x40), 0x11);
  copy = mem;
  EXPECT_EQ(copy.read(0x40), 0x22);
}

TEST(SparseMemory, WritesThroughTheCachedLineAcrossTwoLines) {
  SparseMemory mem(0x31);
  // Alternate between two lines so every write either hits the cached line
  // or has to switch it, with reads of both lines in between.
  for (std::uint32_t k = 0; k < SparseMemory::kLineBytes; ++k) {
    mem.write(0x80 + k, static_cast<std::uint8_t>(k));
    mem.write(0xc0 + k, static_cast<std::uint8_t>(0xff - k));
    mem.write(0xc0 + k, static_cast<std::uint8_t>(0x80 + k));  // cached hit
    ASSERT_EQ(mem.read(0x80 + k), static_cast<std::uint8_t>(k)) << k;
    ASSERT_EQ(mem.read(0xc0 + k), static_cast<std::uint8_t>(0x80 + k)) << k;
    if (k + 1 < SparseMemory::kLineBytes) {
      ASSERT_EQ(mem.read(0x81 + k), default_mem_byte(0x81 + k, 0x31)) << k;
    }
  }
  // A copy keeps every value and starts with an empty cache: its writes
  // land in its own lines, even to the line the source last cached.
  SparseMemory copy = mem;
  copy.write(0xc0, 0x5e);
  copy.write(0x80, 0x5f);
  EXPECT_EQ(mem.read(0xc0), 0x80);
  EXPECT_EQ(mem.read(0x80), 0x00);
  EXPECT_EQ(copy.read(0xc0), 0x5e);
  EXPECT_EQ(copy.read(0x80), 0x5f);
  for (std::uint32_t k = 1; k < SparseMemory::kLineBytes; ++k) {
    EXPECT_EQ(copy.read(0x80 + k), static_cast<std::uint8_t>(k)) << k;
    EXPECT_EQ(copy.read(0xc0 + k), static_cast<std::uint8_t>(0x80 + k)) << k;
  }
  EXPECT_EQ(copy.read(0x100), default_mem_byte(0x100, 0x31));
}

TEST(SparseMemory, TargetBfmAndTlmMemoryAgree) {
  sim::Context ctx;
  const NodeConfig cfg = tcfg();
  stbus::PortPins pins(ctx, "tb.t", cfg);
  verif::TargetProfile prof;
  prof.mem_pattern = 0x77;
  verif::TargetBfm bfm(ctx, "t", pins, cfg.type, prof, Rng(1));
  tlm::Node node(cfg);
  node.memory(0) = SparseMemory(0x77);  // as ReferenceModel sets it up
  SparseMemory& mem = node.memory(0);
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.range(0, 0x3000));
    const auto v = static_cast<std::uint8_t>(rng.range(0, 255));
    bfm.poke(a, v);
    mem.write(a, v);
  }
  for (std::uint32_t a = 0; a < 0x3100; ++a) {
    ASSERT_EQ(bfm.peek(a), mem.read(a)) << a;
  }
}

TEST(TlmNode, StoreThenLoad) {
  tlm::Node node(tcfg());
  auto w = node.transport(make_st4(0x100, 0xcafebabe));
  EXPECT_EQ(w.status, RspOpcode::kOk);
  EXPECT_EQ(w.target, 0);
  Request ld;
  ld.opc = Opcode::kLd4;
  ld.add = 0x100;
  auto r = node.transport(ld);
  EXPECT_EQ(r.status, RspOpcode::kOk);
  ASSERT_EQ(r.rdata.size(), 4u);
  EXPECT_EQ(r.rdata[0], 0xbe);
  EXPECT_EQ(r.rdata[3], 0xca);
}

TEST(TlmNode, RoutesAcrossTargets) {
  tlm::Node node(tcfg());
  auto c0 = node.transport(make_st4(0x40, 1));
  auto c1 = node.transport(make_st4(0x10040, 2));
  EXPECT_EQ(c0.target, 0);
  EXPECT_EQ(c1.target, 1);
  EXPECT_EQ(node.memory(0).read(0x40), 1);
  EXPECT_EQ(node.memory(1).read(0x10040), 2);
}

TEST(TlmNode, DecodeErrorUntouchedMemory) {
  tlm::Node node(tcfg());
  auto c = node.transport(make_st4(0xdead0000u, 0xff));
  EXPECT_EQ(c.status, RspOpcode::kError);
  EXPECT_EQ(c.target, -1);
}

TEST(TlmNode, RmwAndSwapSemantics) {
  tlm::Node node(tcfg());
  node.transport(make_st4(0x20, 0x0000000f));
  Request rmw;
  rmw.opc = Opcode::kRmw4;
  rmw.add = 0x20;
  rmw.wdata = {0xf0, 0, 0, 0};
  auto r1 = node.transport(rmw);
  EXPECT_EQ(r1.rdata[0], 0x0f);             // returns old value
  EXPECT_EQ(node.memory(0).read(0x20), 0xff);  // atomic OR applied

  Request swap;
  swap.opc = Opcode::kSwap4;
  swap.add = 0x20;
  swap.wdata = {0x11, 0x22, 0x33, 0x44};
  auto r2 = node.transport(swap);
  EXPECT_EQ(r2.rdata[0], 0xff);
  EXPECT_EQ(node.memory(0).read(0x20), 0x11);
}

TEST(TlmNode, IllegalLanesError) {
  tlm::Node node(tcfg());
  Request r;
  r.opc = Opcode::kLd2;
  r.add = 0x103;  // lanes 3..4 straddle the 4-byte word
  auto c = node.transport(r);
  EXPECT_EQ(c.status, RspOpcode::kError);
}

// --------------------------------------------------------------------------
// Reference model inside the testbench
// --------------------------------------------------------------------------

TEST(ReferenceModel, CleanRunVerifiesLoads) {
  verif::TestbenchOptions opts;
  opts.seed = 5;
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 60;
  verif::Testbench tb(tcfg(), spec, opts);
  const auto r = tb.run();
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.reference_mismatches, 0u);
  ASSERT_NE(tb.reference_model(), nullptr);
  EXPECT_GT(tb.reference_model()->stats().loads_verified, 0u);
}

TEST(ReferenceModel, CatchesByteEnableFaultViaDataSemantics) {
  // Even with the scoreboard disabled, corrupted store lanes surface as
  // wrong load data versus the TLM prediction.
  verif::TestbenchOptions opts;
  opts.model = verif::ModelKind::kBca;
  opts.seed = 5;
  opts.enable_scoreboard = false;
  opts.enable_checkers = false;
  opts.faults.byte_enable_dropped = true;
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 120;
  verif::Testbench tb(tcfg(), spec, opts);
  const auto r = tb.run();
  EXPECT_GT(r.reference_mismatches, 0u)
      << "reference model should flag semantic corruption";
}

TEST(ReferenceModel, DisabledWhenTargetsInjectErrors) {
  verif::TestbenchOptions opts;
  verif::TestSpec spec = verif::t02_random_all_opcodes();
  spec.n_transactions = 30;
  spec.target = [](const NodeConfig&, int) {
    verif::TargetProfile p;
    p.error_permille = 200;  // unpredictable errors
    return p;
  };
  verif::Testbench tb(tcfg(), spec, opts);
  EXPECT_EQ(tb.reference_model(), nullptr);
  const auto r = tb.run();
  EXPECT_TRUE(r.passed());  // checkers/scoreboard handle error responses
}

TEST(ReferenceModel, Type3OutOfOrderMatchedByTid) {
  verif::TestbenchOptions opts;
  opts.seed = 6;
  verif::TestSpec spec = verif::t03_out_of_order();
  spec.n_transactions = 80;
  stbus::NodeConfig cfg = tcfg();
  verif::Testbench tb(cfg, spec, opts);
  const auto r = tb.run();
  EXPECT_TRUE(r.passed()) << r.reference_mismatches;
  EXPECT_GT(tb.reference_model()->stats().completions_checked, 100u);
}

TEST(ReferenceModel, DecodeErrorsPredicted) {
  verif::TestbenchOptions opts;
  opts.seed = 7;
  verif::TestSpec spec = verif::t10_decode_errors();
  spec.n_transactions = 80;
  verif::Testbench tb(tcfg(), spec, opts);
  const auto r = tb.run();
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.reference_mismatches, 0u);
}

}  // namespace
}  // namespace crve

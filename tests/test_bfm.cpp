// Direct unit tests for the initiator and target BFMs against a trivial
// always-ready environment (no node in between).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "verif/agent.h"
#include "verif/bfm_initiator.h"
#include "verif/bfm_target.h"

namespace crve {
namespace {

using stbus::NodeConfig;
using stbus::Opcode;
using stbus::PortPins;
using stbus::ProtocolType;
using verif::InitiatorBfm;
using verif::InitiatorProfile;
using verif::TargetBfm;
using verif::TargetProfile;

NodeConfig map1() {
  NodeConfig cfg;
  cfg.n_initiators = 1;
  cfg.n_targets = 1;
  cfg.bus_bytes = 4;
  cfg.validate_and_normalize();
  return cfg;
}

// BFM initiator wired straight into a target BFM: the simplest legal system.
struct DirectRig {
  sim::Context ctx;
  NodeConfig cfg = map1();
  PortPins pins{ctx, "tb.p", cfg};

  std::unique_ptr<InitiatorBfm> init;
  std::unique_ptr<TargetBfm> targ;
  std::unique_ptr<verif::PortAgent> agent;

  DirectRig(InitiatorProfile prof, ProtocolType type = ProtocolType::kType2,
            std::vector<stbus::Request> directed = {}) {
    prof.keep_history = true;
    if (directed.empty()) {
      init = std::make_unique<InitiatorBfm>(ctx, "i", pins, type, 0, cfg,
                                            prof, Rng(3));
    } else {
      init = std::make_unique<InitiatorBfm>(ctx, "i", pins, type, 0, cfg,
                                            prof, Rng(3),
                                            std::move(directed));
    }
    TargetProfile tp;
    tp.fixed_latency = 1;
    targ = std::make_unique<TargetBfm>(ctx, "t", pins, type, tp, Rng(4));
    agent = std::make_unique<verif::PortAgent>(
        ctx, "p", pins,
        verif::PortAgent::Parts{.initiator = init.get(),
                                .target = targ.get()});
  }

  bool run(int max_cycles = 50000) {
    ctx.initialize();
    while (ctx.cycle() < static_cast<std::uint64_t>(max_cycles)) {
      ctx.step();
      if (init->done() && targ->idle()) return true;
    }
    return false;
  }
};

TEST(InitiatorBfm, CompletesItsBudget) {
  InitiatorProfile prof;
  prof.n_transactions = 25;
  DirectRig rig(prof);
  ASSERT_TRUE(rig.run());
  EXPECT_EQ(rig.init->issued(), 25);
  EXPECT_EQ(rig.init->completed(), 25);
  EXPECT_EQ(rig.init->history().size(), 25u);
  EXPECT_GT(rig.init->mean_latency(), 0.0);
  EXPECT_GE(rig.init->mean_total_latency(), rig.init->mean_latency());
}

TEST(InitiatorBfm, ChunksAlwaysClosed) {
  InitiatorProfile prof;
  prof.n_transactions = 30;
  prof.chunk_permille = 700;
  prof.max_chunk_packets = 4;
  prof.idle_permille = 0;
  DirectRig rig(prof);
  ASSERT_TRUE(rig.run());
  // Chunk continuations may exceed the budget, but every lck chain closes:
  // the last completed transaction must not leave a chunk open.
  EXPECT_GE(rig.init->issued(), 30);
  const auto& hist = rig.init->history();
  bool open = false;
  for (const auto& tx : hist) open = tx.request.lck;
  EXPECT_FALSE(open);
}

TEST(InitiatorBfm, Type3TidsUniqueAmongOutstanding) {
  InitiatorProfile prof;
  prof.n_transactions = 60;
  prof.max_outstanding = 8;
  prof.idle_permille = 0;
  DirectRig rig(prof, ProtocolType::kType3);
  ASSERT_TRUE(rig.run());
  // With at most 8 outstanding, the lowest-free-tid allocator must never
  // hand out a tid >= 8.
  for (const auto& tx : rig.init->history()) {
    EXPECT_LT(tx.request.tid, 8);
  }
}

TEST(InitiatorBfm, DirectedSequencePreservedInOrder) {
  std::vector<stbus::Request> seq;
  for (int k = 0; k < 10; ++k) {
    stbus::Request r;
    r.opc = k % 2 == 0 ? Opcode::kSt4 : Opcode::kLd4;
    r.add = 0x100u + static_cast<std::uint32_t>(k) * 4;
    if (k % 2 == 0) r.wdata = {1, 2, 3, 4};
    seq.push_back(r);
  }
  InitiatorProfile prof;
  prof.max_outstanding = 1;
  DirectRig rig(prof, ProtocolType::kType2, seq);
  ASSERT_TRUE(rig.run());
  ASSERT_EQ(rig.init->history().size(), 10u);
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(rig.init->history()[static_cast<std::size_t>(k)].request.add,
              seq[static_cast<std::size_t>(k)].add);
  }
}

TEST(InitiatorBfm, RejectsBadProfiles) {
  sim::Context ctx;
  auto cfg = map1();
  PortPins pins(ctx, "tb.p", cfg);
  InitiatorProfile bad_window;
  bad_window.windows = {stbus::AddressRange{0x10, 0x20, 0}};  // unaligned
  EXPECT_THROW(InitiatorBfm(ctx, "i", pins, ProtocolType::kType2, 0, cfg,
                            bad_window, Rng(1)),
               std::invalid_argument);
  InitiatorProfile bad_outstanding;
  bad_outstanding.max_outstanding = 0;
  EXPECT_THROW(InitiatorBfm(ctx, "i", pins, ProtocolType::kType2, 0, cfg,
                            bad_outstanding, Rng(1)),
               std::invalid_argument);
}

TEST(TargetBfm, AppliesStoresAndServesLoads) {
  std::vector<stbus::Request> seq;
  stbus::Request st;
  st.opc = Opcode::kSt4;
  st.add = 0x20;
  st.wdata = {0xde, 0xad, 0xbe, 0xef};
  seq.push_back(st);
  stbus::Request ld;
  ld.opc = Opcode::kLd4;
  ld.add = 0x20;
  seq.push_back(ld);
  InitiatorProfile prof;
  prof.max_outstanding = 1;
  DirectRig rig(prof, ProtocolType::kType2, seq);
  ASSERT_TRUE(rig.run());
  EXPECT_EQ(rig.targ->peek(0x20), 0xde);
  EXPECT_EQ(rig.init->history()[1].rdata,
            (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(rig.targ->stats().packets, 2u);
}

TEST(TargetBfm, RandomErrorsReported) {
  sim::Context ctx;
  auto cfg = map1();
  PortPins pins(ctx, "tb.p", cfg);
  InitiatorProfile prof;
  prof.n_transactions = 60;
  prof.keep_history = true;
  prof.idle_permille = 0;
  InitiatorBfm init(ctx, "i", pins, ProtocolType::kType2, 0, cfg, prof,
                    Rng(3));
  TargetProfile tp;
  tp.fixed_latency = 1;
  tp.error_permille = 400;
  TargetBfm targ(ctx, "t", pins, ProtocolType::kType2, tp, Rng(4));
  verif::PortAgent agent(ctx, "p", pins,
                         {.initiator = &init, .target = &targ});
  ctx.initialize();
  while (ctx.cycle() < 50000 && !(init.done() && targ.idle())) ctx.step();
  ASSERT_TRUE(init.done());
  EXPECT_GT(targ.stats().error_packets, 0u);
  int errors = 0;
  for (const auto& tx : init.history()) {
    if (tx.status == stbus::RspOpcode::kError) ++errors;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(errors), targ.stats().error_packets);
}

TEST(TargetBfm, WaitStatesSlowButComplete) {
  InitiatorProfile prof;
  prof.n_transactions = 20;
  prof.idle_permille = 0;
  DirectRig fast(prof);
  ASSERT_TRUE(fast.run());

  sim::Context ctx;
  auto cfg = map1();
  PortPins pins(ctx, "tb.p", cfg);
  prof.keep_history = true;
  InitiatorBfm init(ctx, "i", pins, ProtocolType::kType2, 0, cfg, prof,
                    Rng(3));
  TargetProfile tp;
  tp.fixed_latency = 1;
  tp.gnt_stall_permille = 500;
  TargetBfm targ(ctx, "t", pins, ProtocolType::kType2, tp, Rng(4));
  verif::PortAgent agent(ctx, "p", pins,
                         {.initiator = &init, .target = &targ});
  ctx.initialize();
  while (ctx.cycle() < 50000 && !(init.done() && targ.idle())) ctx.step();
  ASSERT_TRUE(init.done());
  EXPECT_GT(ctx.cycle(), fast.ctx.cycle());
}

}  // namespace
}  // namespace crve

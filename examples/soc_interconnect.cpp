// Paper Fig. 1: a hierarchical STBus interconnect built from all four basic
// components — nodes, a size converter, a type converter and (in the target
// role) memory models:
//
//   init1 ─┐
//   init2 ─┤  Node A                       Node B
//   init3 ─┤ (Type2, 32-bit) ──(t2/t3)──> (Type3, 32-bit) ──> targ3
//   init4 ─┴─(64/32)─┘   │                        └─────────> targ4
//      (64-bit)          ├──> targ1
//                        └──> targ2
//
// Four constrained-random initiators spray loads/stores across the whole
// 256 KiB map; protocol checkers watch every external port. The example
// prints traffic and latency per target, separating local (one node) from
// remote (node + converter + node) paths.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "rtl/node.h"
#include "rtl/size_converter.h"
#include "rtl/type_converter.h"
#include "verif/agent.h"
#include "verif/bfm_initiator.h"
#include "verif/bfm_target.h"
#include "verif/monitor.h"
#include "verif/protocol_checker.h"

int main() {
  using namespace crve;
  using stbus::AddressRange;
  using stbus::NodeConfig;
  using stbus::PortPins;
  using stbus::ProtocolType;

  sim::Context ctx;

  // --- global memory map: 64 KiB per target --------------------------------
  const AddressRange t1r{0x00000, 0x10000, 0};
  const AddressRange t2r{0x10000, 0x10000, 1};
  const AddressRange t3r{0x20000, 0x10000, 0};  // behind node B
  const AddressRange t4r{0x30000, 0x10000, 1};

  // --- node A: Type2, 32-bit, 4 initiators, 3 targets (2 local + bridge) ---
  NodeConfig cfgA;
  cfgA.name = "nodeA";
  cfgA.n_initiators = 4;
  cfgA.n_targets = 3;
  cfgA.bus_bytes = 4;
  cfgA.type = ProtocolType::kType2;
  cfgA.arch = stbus::Architecture::kFullCrossbar;
  cfgA.arb = stbus::ArbPolicy::kLru;
  cfgA.address_map = {{0x00000, 0x10000, 0},
                      {0x10000, 0x10000, 1},
                      {0x20000, 0x20000, 2}};  // everything remote -> bridge

  // --- node B: Type3, 32-bit, 1 initiator (the bridge), 2 targets ----------
  NodeConfig cfgB;
  cfgB.name = "nodeB";
  cfgB.n_initiators = 1;
  cfgB.n_targets = 2;
  cfgB.bus_bytes = 4;
  cfgB.type = ProtocolType::kType3;
  cfgB.arch = stbus::Architecture::kFullCrossbar;
  cfgB.arb = stbus::ArbPolicy::kRoundRobin;
  cfgB.address_map = {t3r, t4r};

  // --- pins -----------------------------------------------------------
  std::vector<std::unique_ptr<PortPins>> ipins;  // init1..3 (32-bit)
  for (int i = 0; i < 3; ++i) {
    ipins.push_back(std::make_unique<PortPins>(
        ctx, "tb.init" + std::to_string(i + 1), 4));
  }
  PortPins i4_pins(ctx, "tb.init4", 8);        // 64-bit initiator
  PortPins i4_dn(ctx, "tb.conv64.dn", 4);      // size-converted side
  PortPins t1_pins(ctx, "tb.targ1", 4), t2_pins(ctx, "tb.targ2", 4);
  PortPins bridge_up(ctx, "tb.bridge.up", 4);  // node A target side (t2)
  PortPins bridge_dn(ctx, "tb.bridge.dn", 4);  // node B initiator side (t3)
  PortPins t3_pins(ctx, "tb.targ3", 4), t4_pins(ctx, "tb.targ4", 4);

  // --- converters and nodes ------------------------------------------------
  rtl::SizeConverter conv64(ctx, "conv64", i4_pins, i4_dn,
                            ProtocolType::kType2);
  rtl::TypeConverter bridge(ctx, "bridge", bridge_up, ProtocolType::kType2,
                            bridge_dn, ProtocolType::kType3);
  rtl::Node nodeA(ctx, cfgA,
                  {ipins[0].get(), ipins[1].get(), ipins[2].get(), &i4_dn},
                  {&t1_pins, &t2_pins, &bridge_up});
  rtl::Node nodeB(ctx, cfgB, {&bridge_dn}, {&t3_pins, &t4_pins});

  // --- environment ----------------------------------------------------
  Rng master(2024);
  verif::InitiatorProfile prof;
  prof.windows = {AddressRange{t1r.base, 0x1000, 0},
                  AddressRange{t2r.base, 0x1000, 1},
                  AddressRange{t3r.base, 0x1000, 0},
                  AddressRange{t4r.base, 0x1000, 1}};
  prof.max_size_bytes = 8;
  prof.max_outstanding = 1;  // keep ordering simple across the hierarchy
  prof.idle_permille = 150;
  prof.n_transactions = 150;
  prof.keep_history = true;

  std::vector<std::unique_ptr<verif::InitiatorBfm>> bfms;
  for (int i = 0; i < 3; ++i) {
    bfms.push_back(std::make_unique<verif::InitiatorBfm>(
        ctx, "init" + std::to_string(i + 1), *ipins[static_cast<size_t>(i)],
        ProtocolType::kType2, i, cfgA, prof, master.fork()));
  }
  bfms.push_back(std::make_unique<verif::InitiatorBfm>(
      ctx, "init4", i4_pins, ProtocolType::kType2, 3, cfgA, prof,
      master.fork()));

  verif::TargetProfile fast, slow;
  fast.fixed_latency = 1;
  slow.fixed_latency = 3;
  verif::TargetBfm targ1(ctx, "targ1", t1_pins, ProtocolType::kType2, fast,
                         master.fork());
  verif::TargetBfm targ2(ctx, "targ2", t2_pins, ProtocolType::kType2, slow,
                         master.fork());
  verif::TargetBfm targ3(ctx, "targ3", t3_pins, ProtocolType::kType3, fast,
                         master.fork());
  verif::TargetBfm targ4(ctx, "targ4", t4_pins, ProtocolType::kType3, slow,
                         master.fork());

  std::vector<std::unique_ptr<verif::ProtocolChecker>> checkers;
  for (int i = 0; i < 3; ++i) {
    checkers.push_back(std::make_unique<verif::ProtocolChecker>(
        ctx, "init" + std::to_string(i + 1), *ipins[static_cast<size_t>(i)],
        ProtocolType::kType2, verif::ProtocolChecker::Role::kInitiatorPort,
        i));
  }
  checkers.push_back(std::make_unique<verif::ProtocolChecker>(
      ctx, "init4", i4_pins, ProtocolType::kType2,
      verif::ProtocolChecker::Role::kInitiatorPort, 3));
  checkers.push_back(std::make_unique<verif::ProtocolChecker>(
      ctx, "targ3", t3_pins, ProtocolType::kType3,
      verif::ProtocolChecker::Role::kTargetPort));
  checkers.push_back(std::make_unique<verif::ProtocolChecker>(
      ctx, "targ4", t4_pins, ProtocolType::kType3,
      verif::ProtocolChecker::Role::kTargetPort));

  verif::Monitor mon1("targ1", t1_pins), mon2("targ2", t2_pins);
  verif::Monitor mon3("targ3", t3_pins), mon4("targ4", t4_pins);

  // One agent per environment-side port: it samples the port once a cycle
  // and steps the port's BFM, checker and monitor on that view.
  std::vector<std::unique_ptr<verif::PortAgent>> agents;
  auto attach = [&](const std::string& name, PortPins& pins,
                    verif::PortAgent::Parts parts) {
    agents.push_back(
        std::make_unique<verif::PortAgent>(ctx, name, pins, parts));
  };
  for (int i = 0; i < 3; ++i) {
    attach("init" + std::to_string(i + 1), *ipins[static_cast<size_t>(i)],
           {.initiator = bfms[static_cast<size_t>(i)].get(),
            .checker = checkers[static_cast<size_t>(i)].get()});
  }
  attach("init4", i4_pins,
         {.initiator = bfms[3].get(), .checker = checkers[3].get()});
  attach("targ1", t1_pins, {.target = &targ1, .monitor = &mon1});
  attach("targ2", t2_pins, {.target = &targ2, .monitor = &mon2});
  attach("targ3", t3_pins,
         {.target = &targ3, .checker = checkers[4].get(), .monitor = &mon3});
  attach("targ4", t4_pins,
         {.target = &targ4, .checker = checkers[5].get(), .monitor = &mon4});

  // --- run ------------------------------------------------------------
  ctx.initialize();
  while (ctx.cycle() < 200000) {
    ctx.step();
    bool done = true;
    for (auto& b : bfms) done &= b->done();
    done &= targ1.idle() && targ2.idle() && targ3.idle() && targ4.idle();
    if (done) break;
  }
  ctx.step(4);
  std::uint64_t violations = 0;
  for (auto& c : checkers) {
    c->end_of_test();
    violations += c->violation_count();
  }

  std::printf("Fig.1 interconnect: %llu cycles, %llu protocol violations\n\n",
              static_cast<unsigned long long>(ctx.cycle()),
              static_cast<unsigned long long>(violations));
  std::printf("traffic per target port:\n");
  const verif::Monitor* mons[] = {&mon1, &mon2, &mon3, &mon4};
  for (int t = 0; t < 4; ++t) {
    std::printf("  targ%d: %5llu request packets (%s)\n", t + 1,
                static_cast<unsigned long long>(
                    mons[t]->stats().request_packets),
                t < 2 ? "local, node A" : "remote, via t2/t3 bridge");
  }

  // Local vs remote latency, pooled over all initiators.
  double local_sum = 0, remote_sum = 0;
  std::uint64_t local_n = 0, remote_n = 0;
  for (auto& b : bfms) {
    for (const auto& tx : b->history()) {
      const double lat =
          static_cast<double>(tx.done_cycle - tx.issue_cycle);
      if (tx.request.add >= 0x20000) {
        remote_sum += lat;
        ++remote_n;
      } else {
        local_sum += lat;
        ++local_n;
      }
    }
  }
  std::printf("\nmean transaction latency:\n");
  std::printf("  local  (node A only)          : %6.1f cycles over %llu tx\n",
              local_n ? local_sum / static_cast<double>(local_n) : 0.0,
              static_cast<unsigned long long>(local_n));
  std::printf("  remote (node A -> t2/t3 -> B) : %6.1f cycles over %llu tx\n",
              remote_n ? remote_sum / static_cast<double>(remote_n) : 0.0,
              static_cast<unsigned long long>(remote_n));
  std::printf(
      "\nThe remote path pays for the bridge's store-and-forward crossing\n"
      "plus node B arbitration — the cost Fig. 1's hierarchy trades for\n"
      "wiring and frequency decoupling.\n");
  return violations == 0 ? 0 : 1;
}

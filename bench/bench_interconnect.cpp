// F1 — the hierarchical interconnect of paper Fig. 1.
//
// Sweeps traffic locality through a two-node interconnect joined by a t2/t3
// type converter (with a 64/32 size converter in front of one initiator)
// and prints throughput and latency per locality mix. Expected shape: the
// more traffic crosses the bridge, the higher the mean latency and the
// lower the delivered packet rate — the hierarchy trades performance on
// remote paths for decoupling.
#include <benchmark/benchmark.h>

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

namespace {

using namespace crve;
using stbus::AddressRange;
using stbus::PortPins;
using stbus::ProtocolType;

struct InterconnectRun {
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  double local_latency = 0;
  double remote_latency = 0;
  std::uint64_t remote_tx = 0;
};

// remote_permille: fraction of traffic aimed beyond the bridge.
InterconnectRun run_interconnect(int remote_permille, int n_tx) {
  sim::Context ctx;

  stbus::NodeConfig cfgA;
  cfgA.name = "nodeA";
  cfgA.n_initiators = 4;
  cfgA.n_targets = 3;
  cfgA.bus_bytes = 4;
  cfgA.type = ProtocolType::kType2;
  cfgA.arb = stbus::ArbPolicy::kLru;
  cfgA.address_map = {{0x00000, 0x10000, 0},
                      {0x10000, 0x10000, 1},
                      {0x20000, 0x20000, 2}};
  stbus::NodeConfig cfgB;
  cfgB.name = "nodeB";
  cfgB.n_initiators = 1;
  cfgB.n_targets = 2;
  cfgB.bus_bytes = 4;
  cfgB.type = ProtocolType::kType3;
  cfgB.address_map = {{0x20000, 0x10000, 0}, {0x30000, 0x10000, 1}};

  std::vector<std::unique_ptr<PortPins>> ipins;
  for (int i = 0; i < 3; ++i) {
    ipins.push_back(
        std::make_unique<PortPins>(ctx, "tb.init" + std::to_string(i), 4));
  }
  PortPins i4(ctx, "tb.init3", 8), i4dn(ctx, "tb.conv.dn", 4);
  PortPins t1(ctx, "tb.targ1", 4), t2(ctx, "tb.targ2", 4);
  PortPins bup(ctx, "tb.bridge.up", 4), bdn(ctx, "tb.bridge.dn", 4);
  PortPins t3(ctx, "tb.targ3", 4), t4(ctx, "tb.targ4", 4);

  rtl::SizeConverter conv(ctx, "conv", i4, i4dn, ProtocolType::kType2);
  rtl::TypeConverter bridge(ctx, "bridge", bup, ProtocolType::kType2, bdn,
                            ProtocolType::kType3);
  rtl::Node nodeA(ctx, cfgA,
                  {ipins[0].get(), ipins[1].get(), ipins[2].get(), &i4dn},
                  {&t1, &t2, &bup});
  rtl::Node nodeB(ctx, cfgB, {&bdn}, {&t3, &t4});

  Rng master(99);
  // Locality is steered through window weights: windows are drawn uniformly,
  // so replicate local/remote windows proportionally.
  std::vector<AddressRange> windows;
  const int remote_copies = remote_permille / 125;       // 0..8
  const int local_copies = (1000 - remote_permille) / 125;
  for (int k = 0; k < std::max(1, local_copies); ++k) {
    windows.push_back({0x00000, 0x1000, 0});
    windows.push_back({0x10000, 0x1000, 1});
  }
  for (int k = 0; k < remote_copies; ++k) {
    windows.push_back({0x20000, 0x1000, 0});
    windows.push_back({0x30000, 0x1000, 1});
  }

  verif::InitiatorProfile prof;
  prof.windows = windows;
  prof.max_size_bytes = 8;
  prof.max_outstanding = 1;
  prof.idle_permille = 0;
  prof.n_transactions = n_tx;
  prof.keep_history = true;

  std::vector<std::unique_ptr<verif::InitiatorBfm>> bfms;
  for (int i = 0; i < 3; ++i) {
    bfms.push_back(std::make_unique<verif::InitiatorBfm>(
        ctx, "init" + std::to_string(i), *ipins[static_cast<size_t>(i)],
        ProtocolType::kType2, i, cfgA, prof, master.fork()));
  }
  bfms.push_back(std::make_unique<verif::InitiatorBfm>(
      ctx, "init3", i4, ProtocolType::kType2, 3, cfgA, prof, master.fork()));

  verif::TargetProfile tp;
  tp.fixed_latency = 1;
  verif::TargetBfm tg1(ctx, "t1", t1, ProtocolType::kType2, tp, master.fork());
  verif::TargetBfm tg2(ctx, "t2", t2, ProtocolType::kType2, tp, master.fork());
  verif::TargetBfm tg3(ctx, "t3", t3, ProtocolType::kType3, tp, master.fork());
  verif::TargetBfm tg4(ctx, "t4", t4, ProtocolType::kType3, tp, master.fork());

  // One agent per environment-side port steps its BFM.
  std::vector<std::unique_ptr<verif::PortAgent>> agents;
  auto attach = [&](const std::string& name, PortPins& pins,
                    verif::PortAgent::Parts parts) {
    agents.push_back(
        std::make_unique<verif::PortAgent>(ctx, name, pins, parts));
  };
  for (int i = 0; i < 3; ++i) {
    attach("init" + std::to_string(i), *ipins[static_cast<size_t>(i)],
           {.initiator = bfms[static_cast<size_t>(i)].get()});
  }
  attach("init3", i4, {.initiator = bfms[3].get()});
  attach("t1", t1, {.target = &tg1});
  attach("t2", t2, {.target = &tg2});
  attach("t3", t3, {.target = &tg3});
  attach("t4", t4, {.target = &tg4});

  ctx.initialize();
  while (ctx.cycle() < 400000) {
    ctx.step();
    bool done = true;
    for (auto& b : bfms) done &= b->done();
    if (done && tg1.idle() && tg2.idle() && tg3.idle() && tg4.idle()) break;
  }

  InterconnectRun out;
  out.cycles = ctx.cycle();
  double lsum = 0, rsum = 0;
  std::uint64_t ln = 0, rn = 0;
  for (auto& b : bfms) {
    out.packets += static_cast<std::uint64_t>(b->completed());
    for (const auto& tx : b->history()) {
      const auto lat = static_cast<double>(tx.done_cycle - tx.gen_cycle);
      if (tx.request.add >= 0x20000) {
        rsum += lat;
        ++rn;
      } else {
        lsum += lat;
        ++ln;
      }
    }
  }
  out.local_latency = ln ? lsum / static_cast<double>(ln) : 0;
  out.remote_latency = rn ? rsum / static_cast<double>(rn) : 0;
  out.remote_tx = rn;
  return out;
}

void print_table() {
  std::printf(
      "== F1: hierarchical interconnect (Fig. 1) — locality sweep ==\n\n");
  std::printf("%-9s %8s %9s %12s %13s %10s\n", "remote", "cycles", "tx/kcyc",
              "local lat", "remote lat", "remote tx");
  for (int rm : {0, 250, 500, 750, 1000}) {
    const auto r = run_interconnect(rm, 150);
    std::printf("%7.1f%% %8llu %9.1f %9.1f cy %10.1f cy %10llu\n",
                rm / 10.0, static_cast<unsigned long long>(r.cycles),
                1000.0 * static_cast<double>(r.packets) /
                    static_cast<double>(r.cycles),
                r.local_latency, r.remote_latency,
                static_cast<unsigned long long>(r.remote_tx));
  }
  std::printf(
      "\nRemote traffic crosses node A, the serialized t2/t3 bridge and\n"
      "node B: latency rises and delivered throughput falls as the remote\n"
      "share grows.\n\n");
}

void BM_Interconnect(benchmark::State& state) {
  const int remote = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto r = run_interconnect(remote, 80);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetLabel("remote " + std::to_string(remote / 10) + "%");
}

BENCHMARK(BM_Interconnect)->Arg(0)->Arg(500)->Arg(1000)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

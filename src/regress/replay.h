// BCA replay (DESIGN.md §8): the BCA view of a pair, driven from the pair's
// RTL recording instead of its environment.
//
// In the closed loop a BCA view job re-runs the BFMs, the port agents and
// the programming initiator only to rebuild stimulus the RTL view job has
// already recorded. The replay elaborates the same pin bundles and
// bca::Node (verif::Dut), builds no environment, and registers one clocked
// process per environment process of the closed loop (an agent per port,
// the Type1 checker when the configuration has a programming port, the
// programming initiator when the test programs). Those processes write the
// environment-driven pins from the recording, cycle by cycle: the request
// channel and r_gnt on initiator and programming ports, gnt and the
// response channel on target ports. A tracer compares every signal that
// changed, and every change the recording logs, with the recording at that
// cycle, and stops at the first difference.
//
// Why this decides what the closed loop would: environment processes are
// clocked and read only settled pins, and the BFM streams depend only on
// the seed and the pin history. So as long as the BCA pins equal the
// recorded ones up to a cycle, the closed loop's environment drives on the
// next cycle exactly what the recording holds, and its DUT sees the
// replay's inputs. By induction over cycles the replay matches the
// recording on every cycle exactly when the closed-loop BCA recording
// would equal the RTL one (vcd::Trace::operator==), and the first cycle
// the replay differs is the first cycle the two recordings differ. A
// matched replay also costs the kernel the closed loop's evaluations: the
// same clocked process count and the same pin changes.
#pragma once

#include <cstdint>
#include <vector>

#include "bca/faults.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "vcd/parser.h"
#include "verif/testbench.h"

namespace crve::regress {

struct BcaReplay {
  // The replay matched the recording on every cycle: the closed-loop BCA
  // view would record what `rtl` holds.
  bool proved = false;
  // First cycle the replay differs from the recording (proved = false);
  // a variable table that differs diverges at cycle 0.
  std::uint64_t divergence = 0;
  // The replay kernel's process evaluations: the closed loop's when
  // proved.
  std::uint64_t evaluations = 0;
  // When proved, for every initiator then target port (the alignment
  // ports, in order): its fields as stba::Analyzer::resolve_ports gives
  // them for `rtl`, and its granted cells, counted in the replay's walk of
  // the log (stba::CellCounter).
  std::vector<std::vector<int>> port_fields;
  std::vector<std::uint64_t> cells;
};

// Replays the BCA view of (`cfg`, `spec`) under `faults` against `rtl`,
// the RTL view's recording, for `cycles` cycles, the RTL view's run
// length. When proved, publishes the replay kernel's sim.* counters, which
// then equal the closed loop's.
BcaReplay replay_bca(const stbus::NodeConfig& cfg, const verif::TestSpec& spec,
                     sim::KernelKind kernel, const bca::Faults& faults,
                     const vcd::Trace& rtl, std::uint64_t cycles);

// The BCA result a proved replay settles: the RTL result's completion,
// cycle count and passive verdict (RunResult::take_passive_verdict), with
// the replay's own evaluations.
verif::RunResult settle_replayed_bca(const verif::RunResult& rtl,
                                     std::uint64_t evaluations);

}  // namespace crve::regress

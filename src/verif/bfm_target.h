// Target BFM: a latency-programmable memory model.
//
// Accepts request packets (with optional per-cycle wait states), applies
// stores to a sparse byte memory honouring byte enables, and produces
// response packets after a configurable latency. Memory reads of untouched
// locations return a deterministic address-hash pattern, so load data is
// reproducible without pre-initialization. Responses leave one target in
// arrival order; out-of-order traffic at an initiator arises from targets
// of different speeds — exactly how the paper's test case forces it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mem_pattern.h"
#include "common/ring.h"
#include "common/rng.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/packet.h"
#include "stbus/pins.h"

namespace crve::verif {

struct TargetProfile {
  // Cycles between absorbing a request packet and offering the response.
  int fixed_latency = 2;
  // Extra random latency drawn uniformly in [0, extra_latency_max].
  std::uint32_t extra_latency_max = 0;
  // Per-mille chance of a wait state (gnt low) each cycle.
  std::uint32_t gnt_stall_permille = 0;
  // Per-mille chance a packet is answered with ERROR (memory untouched).
  std::uint32_t error_permille = 0;
  // Seed for the default memory fill pattern.
  std::uint64_t mem_pattern = 0x5a5a;
};

class TargetBfm {
 public:
  TargetBfm(sim::Context& ctx, std::string name, stbus::PortPins& pins,
            stbus::ProtocolType type, TargetProfile profile, Rng rng);

  // One cycle, called by the port's PortAgent with the settled view:
  // retires the delivered response cell, absorbs the granted request cell,
  // then schedules this cycle's drive.
  void step(const stbus::PortCycle& now);

  // Design-lint declarations: the request payload is read only while a
  // request fires, the response payload driven only while one is pending.
  sim::ClockedOpts declarations() const;

  // Direct memory access for tests.
  std::uint8_t peek(std::uint32_t addr) const;
  void poke(std::uint32_t addr, std::uint8_t value);

  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t error_packets = 0;
    std::uint64_t illegal_packets = 0;  // geometrically malformed requests
  };
  const Stats& stats() const { return stats_; }

  // True when no response is pending or in flight.
  bool idle() const { return pending_.empty() && !responding(); }

 private:
  // A response packet waiting for its latency to pass. Ring slots are
  // reused, and promotion swaps `cells` with the driven packet's buffer, so
  // once warm no packet allocates.
  struct Pending {
    std::vector<stbus::ResponseCell> cells;
    std::uint64_t ready_cycle = 0;
  };

  bool responding() const { return rsp_idx_ < rsp_cells_.size(); }
  void process_packet();

  std::string name_;
  sim::Context& ctx_;
  stbus::PortPins& pins_;
  stbus::ProtocolType type_;
  TargetProfile prof_;
  Rng rng_;

  SparseMemory mem_;
  std::vector<stbus::RequestCell> req_cells_;
  Ring<Pending> pending_;
  // The packet being driven, from cell rsp_idx_ on.
  std::vector<stbus::ResponseCell> rsp_cells_;
  std::size_t rsp_idx_ = 0;
  std::array<std::uint8_t, stbus::kMaxOpBytes> rdata_{};
  // Drive on change: the BFM is the only writer of its response pins, so
  // they are written only when the front cell changes or the channel idles.
  bool redrive_ = false;
  bool driving_ = false;
  Stats stats_;
};

}  // namespace crve::verif

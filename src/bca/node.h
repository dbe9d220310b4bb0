// BCA (bus-cycle-accurate) view of the STBus node.
//
// Written independently of rtl::Node against the same cycle contract
// (DESIGN.md §4, rtl/node.h): a behavioural, transaction-queue model of the
// kind a SystemC BCA author would produce. Internally it tracks per-target
// outbound slots and per-initiator response slots of one cell each, computes
// the whole cycle outcome in one evaluation pass, and keeps arbitration
// state in policy objects of its own design. Only the port pins are
// contractual; everything inside differs from the RTL view — which is what
// makes the paper's alignment comparison meaningful.
//
// All switchable deviations from the contract live in bca::Faults.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "bca/faults.h"
#include "common/ring.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/pins.h"

namespace crve::bca {

// Arbitration bookkeeping, one instance per node resource. Implemented with
// a recency list and cyclic mask scans rather than the RTL view's counter
// scans.
class ArbState {
 public:
  ArbState(const stbus::NodeConfig& cfg);

  int choose(std::uint32_t eligible) const;
  // `holds_allocation` marks grants that open, continue or close a held
  // allocation (lck cells and owner-path continuations); the LRU-stale
  // fault skips the recency refresh exactly for those grants.
  void update(std::uint64_t next_cycle, int granted, std::uint32_t requesting,
              bool holds_allocation, const Faults& faults);

  // True when update(next_cycle, -1, 0, ...) is provably a no-op: no wait
  // counters pending and the bandwidth tokens already at their quota. Lets
  // the node skip whole idle cycles.
  bool quiescent() const;

  void write_priority(int initiator, int value) {
    prio_[static_cast<std::size_t>(initiator)] = value;
  }
  int read_priority(int initiator) const {
    return prio_[static_cast<std::size_t>(initiator)];
  }

 private:
  stbus::ArbPolicy policy_;
  int n_;
  std::vector<int> prio_;
  std::list<int> lru_order_;  // front = least recently granted
  int next_ptr_ = 0;          // round-robin / bandwidth scan start
  std::vector<int> waited_;
  std::vector<int> deadline_;
  std::vector<int> tokens_;
  std::vector<int> quota_;
  int window_;
};

class Node {
 public:
  Node(sim::Context& ctx, stbus::NodeConfig cfg,
       std::vector<stbus::PortPins*> initiator_ports,
       std::vector<stbus::PortPins*> target_ports,
       stbus::PortPins* prog_port = nullptr, Faults faults = {});

  const stbus::NodeConfig& config() const { return cfg_; }
  const Faults& faults() const { return faults_; }

  int priority(int initiator) const {
    return arb_.front().read_priority(initiator);
  }

 private:
  // Snapshot of one cycle's decisions, computed by the combinational drive
  // and consumed by the edge commit. The vectors are sized at construction
  // and refilled in place, so evaluating never allocates.
  struct Outcome {
    std::vector<int> req_winner;       // per resource
    std::vector<std::uint32_t> req_mask;  // per resource, requesting
    std::vector<std::uint32_t> ready;     // per resource, slot free
    std::uint32_t grants = 0;
    std::uint32_t error_sinks = 0;
    std::vector<int> rsp_pick;  // per initiator: source (T = errgen, -1 none)
    // Per initiator: the sources offering it a cell, bit t for target t and
    // bit T for the error generator.
    std::vector<std::uint64_t> offers;
  };

  struct PendingError {
    stbus::Opcode opc{};
    std::uint8_t tid = 0;
    int cells_left = 0;
  };

  // Fills out_ from the current pins and internal state.
  void evaluate();
  void drive_pins();
  void tick();
  void handle_prog();
  // True when this edge is provably a no-op (no traffic in flight, ports
  // idle, arbiters quiescent): the tick body can be skipped entirely.
  bool idle_cycle() const;

  bool target_slot_free(int target) const;
  bool initiator_slot_free(int initiator) const;
  // Slot occupancy changes go through these, which also mark the port's
  // payload pins for the next drive.
  void fill_target_slot(int target);
  void empty_target_slot(int target);
  void fill_initiator_slot(int initiator);
  void empty_initiator_slot(int initiator);

  stbus::NodeConfig cfg_;
  std::vector<stbus::PortPins*> iports_;
  std::vector<stbus::PortPins*> tports_;
  stbus::PortPins* prog_ = nullptr;
  Faults faults_;

  std::vector<ArbState> arb_;                    // per resource
  std::vector<int> allocation_;                  // per resource owner
  // One-cell slots toward each target and back to each initiator. Bit k of
  // a mask is slot k's occupancy; tick() maintains them, so idle_cycle()
  // and the slot checks read no queue (NodeConfig allows 32 ports a side).
  std::vector<stbus::RequestCell> to_target_;
  std::vector<stbus::ResponseCell> to_initiator_;
  std::uint32_t target_full_ = 0;
  std::uint32_t initiator_full_ = 0;
  // Ports whose slot changed since the last drive: only their payload
  // pins are redriven (the node is their only writer, and a signal holds
  // its last write). All set before the first drive.
  std::uint32_t target_moved_ = ~0u;
  std::uint32_t initiator_moved_ = ~0u;
  std::vector<int> rsp_allocation_;              // per initiator
  std::vector<int> rsp_next_;                    // per-initiator source scan
  int rsp_shared_next_ = 0;
  std::vector<Ring<PendingError>> err_pending_;  // per initiator
  std::size_t errors_pending_ = 0;               // over all initiators

  std::uint64_t ticks_ = 0;

  // Version of the tick-owned internal state the drive process reads
  // (slots, allocations, arbiter state, programming FSM). Bumped on every
  // non-idle edge so the compiled schedule re-dirties the drive process.
  sim::StateTag tag_;

  // The cycle's decisions as drive_pins() last computed them. The compiled
  // schedule re-runs the drive process whenever a declared pin or tag_
  // changes, and the interpreter every delta, so at the edge out_ reflects
  // the settled values of the ending cycle and tick() reads it as is.
  Outcome out_;

  bool prog_ack_ = false;
  // The programming FSM changed since the last drive (its pins are then
  // redriven, like a moved slot's).
  bool prog_moved_ = true;
  bool prog_load_ = false;
  bool prog_bad_ = false;
  std::uint32_t prog_value_ = 0;
};

}  // namespace crve::bca

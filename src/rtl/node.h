// RTL view of the STBus node.
//
// Signal-level, synthesizable-style model: all architectural state lives in
// registers updated by one clocked process; outputs are driven by a
// combinational process from registered state and input pins. The cycle
// behaviour (DESIGN.md §4) is the contract the independently written BCA
// view must match:
//
//   * request cell granted at an initiator port in cycle N appears on its
//     target port in cycle N+1 (one pipeline register per target port);
//   * grant is combinational: arbiter winner among requesters whose target
//     register is empty or draining, constrained by the architecture
//     (shared bus: one grant per cycle; full crossbar: one per target;
//     partial crossbar: one per target group) and by packet/chunk ownership
//     (a granted cell with lck=1 keeps the resource allocated);
//   * responses mirror the request path with a register per initiator port,
//     per-initiator round-robin over sources (targets + internal error
//     generator), allocation held until r_eop;
//   * requests that decode to no address range are absorbed and answered by
//     the node itself with ERROR cells;
//   * the optional Type1 programming port updates the per-initiator
//     priorities used by the programmable arbitration policy (1 wait state:
//     request sampled in cycle N is acknowledged in cycle N+1).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "rtl/arbiter.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/pins.h"

namespace crve::rtl {

class Node {
 public:
  // Port bundles are owned by the testbench; the node keeps references.
  Node(sim::Context& ctx, stbus::NodeConfig cfg,
       std::vector<stbus::PortPins*> initiator_ports,
       std::vector<stbus::PortPins*> target_ports,
       stbus::PortPins* prog_port = nullptr);

  const stbus::NodeConfig& config() const { return cfg_; }

  struct Stats {
    std::uint64_t request_cells = 0;
    std::uint64_t response_cells = 0;
    std::uint64_t decode_errors = 0;  // error packets absorbed
    std::vector<std::uint64_t> grants;  // per initiator
  };
  const Stats& stats() const { return stats_; }

  // Current programmable priority of an initiator (for tests).
  int priority(int initiator) const {
    return arbs_.front()->priority(initiator);
  }

 private:
  struct TReg {
    bool valid = false;
    stbus::RequestCell cell;
  };
  struct IReg {
    bool valid = false;
    stbus::ResponseCell cell;
  };
  struct ErrDesc {
    stbus::Opcode opc{};
    std::uint8_t tid = 0;
    int cells_left = 0;
  };

  static constexpr int kNoSource = -1;

  // Decision vectors are sized once at construction and refilled in place
  // every evaluation: the arbitration block never allocates.
  struct ReqDecision {
    std::vector<int> winner;                 // per resource, -1 = none
    std::vector<std::uint32_t> requesting;   // per resource
    std::vector<std::uint32_t> eligible;     // per resource, can be granted
    std::uint32_t gnt_mask = 0;              // includes error-sink grants
    std::uint32_t error_mask = 0;            // decode-error requesters
  };
  struct RspDecision {
    // Per initiator: winning source (0..T-1 = target, T = error generator,
    // -1 = none this cycle).
    std::vector<int> source;
    std::vector<int> offer_to;  // per target: initiator offered, -1 = none
  };

  // Decode an initiator's current request target: -1 = idle, -2 = decode
  // error, else the target index.
  int request_target(int initiator) const;
  bool treg_can_accept(int target) const;
  bool ireg_can_accept(int initiator) const;
  // True when this edge is provably a no-op (ports idle, registers empty,
  // arbiters quiescent): the edge body can be skipped entirely.
  bool idle_cycle() const;

  // Fill req_wires_ / rsp_wires_ from the current pins and registers.
  void decide_requests();
  void decide_responses();

  // Combinational blocks, one kernel process each — the RTL view keeps
  // RTL-like evaluation granularity (arbitration block, per-port grant and
  // mux blocks), which is what makes it slower to simulate than the
  // transaction-level BCA view.
  void comb_arbitration();
  void comb_initiator_gnt(int i);
  void comb_initiator_rsp(int i);
  void comb_target_req(int t);
  void comb_target_rgnt(int t);
  void comb_prog();
  void edge();
  void prog_edge();

  stbus::NodeConfig cfg_;
  std::vector<stbus::PortPins*> iports_;
  std::vector<stbus::PortPins*> tports_;
  stbus::PortPins* prog_ = nullptr;

  std::vector<std::unique_ptr<Arbiter>> arbs_;  // one per resource
  std::vector<int> req_owner_;                  // per resource, -1 = free
  std::vector<TReg> treg_;                      // per target
  std::vector<IReg> ireg_;                      // per initiator
  std::vector<int> rsp_owner_;                  // per initiator, -1 = free
  std::vector<int> rsp_rr_;                     // per-initiator source pointer
  int rsp_shared_rr_ = 0;                       // shared-bus response pointer
  std::vector<std::deque<ErrDesc>> errq_;       // per initiator

  std::uint64_t edge_count_ = 0;  // feeds arbiter bandwidth windows

  // Version of the edge-owned internal state the combinational blocks read
  // (pipeline registers, owners, error queues, programming FSM). Bumped on
  // every non-idle edge so the compiled schedule re-dirties those blocks.
  sim::StateTag tag_;

  // Decision "wires" between the arbitration block and the port blocks.
  // The edge consumes them as latched by the block's last evaluation: the
  // compiled schedule re-runs it whenever a declared pin or tag_ changes,
  // and the interpreter re-runs it every delta, so that evaluation saw the
  // settled values of the ending cycle.
  ReqDecision req_wires_;
  RspDecision rsp_wires_;

  // Programming-port state machine.
  bool prog_gnt_ = false;
  bool prog_is_load_ = false;
  bool prog_err_ = false;
  std::uint32_t prog_rdata_ = 0;

  Stats stats_;
};

}  // namespace crve::rtl

// TLM (transaction-level) view of the interconnect — the paper's future
// work brought into the flow: "Future including of SystemC Verification in
// verification flow will be a great opportunity to add TLM development and
// verification phase in the flow."
//
// tlm::Node is an untimed functional model: one blocking transport call per
// logical operation, no pins, no cycles. It serves two roles:
//   * the first design view to verify, before BCA and RTL exist (the flow
//     of Fig. 4 gains a third, earlier column);
//   * the independent reference model the common environment replays
//     observed traffic through (verif::ReferenceModel), checking the
//     cycle-accurate views' end-to-end data semantics against the spec.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/mem_pattern.h"
#include "stbus/config.h"
#include "stbus/packet.h"

namespace crve::tlm {

// Result of one transported operation.
struct Completion {
  stbus::RspOpcode status = stbus::RspOpcode::kOk;
  std::vector<std::uint8_t> rdata;  // loads/atomics
  int target = -1;                  // -1 = decode error
};

class Node {
 public:
  explicit Node(stbus::NodeConfig cfg);

  // Blocking transport: routes the operation, applies memory semantics at
  // the decoded target, returns the completion. Never touches memory on a
  // decode error or an illegal lane geometry (status = kError).
  Completion transport(const stbus::Request& req);

  // Applies an operation directly at a known target (used by the reference
  // model when replaying target-port traffic) and returns its status. A
  // load or atomic writes its size_bytes(opc) bytes of read data into the
  // caller's `rdata`, which must hold that many; zeros on an error.
  stbus::RspOpcode apply_at(int target, const stbus::Request& req,
                            std::span<std::uint8_t> rdata);

  SparseMemory& memory(int target) {
    return mem_[static_cast<std::size_t>(target)];
  }
  const stbus::NodeConfig& config() const { return cfg_; }

 private:
  stbus::NodeConfig cfg_;
  std::vector<SparseMemory> mem_;  // per target
};

}  // namespace crve::tlm

// STBus interface protocol checker.
//
// One checker watches one port and enforces the protocol rule set of
// DESIGN.md §4 on the settled, decoded view its port's PortAgent hands it
// every cycle. It is entirely DUT-agnostic: the same instance checks the
// RTL view, the BCA view, or a wrapped model. Violations are collected, not thrown, so a run can report
// every failure it saw (the regression tool aggregates them per test).
//
// Rule identifiers:
//   HOLD_REQ   request payload must hold while req=1 and gnt=0
//   HOLD_RSP   response payload must hold while r_req=1 and r_gnt=0
//   ALIGN      packet address naturally aligned to the operation size
//   ADDR_SEQ   beat addresses increment by the bus width within a packet
//   REQ_OPC    illegal opc encoding (6-bit field, 16 opcodes); the
//              size-dependent rules (ALIGN, BE, PKT_LEN) skip such a cell
//   OPC_STABLE opcode constant within a packet
//   BE         byte enables match opcode/address/beat
//   PKT_LEN    eop exactly on cell request_cells(opc) of the packet
//   LCK_MID    cells before eop must assert lck (allocation held)
//   SRC_STABLE src constant within a packet (and, at initiator ports,
//              equal to the configured port id)
//   TID_REUSE  initiator reused a tid that is still outstanding (Type3)
//   RSP_MATCH  response packet matches an outstanding request (src/tid/
//              cell count); in-order per source for Type2
//   RSP_SPUR   response with no outstanding request
//   RSP_OPC    illegal r_opc encoding
//   CHUNK_TGT  packet after a lck-terminated packet routes to a different
//              target (needs the address map)
//   STARVE     a request (or response) stayed ungranted for more than the
//              starvation limit of consecutive cycles
//   EOT        end-of-test: outstanding transactions or partial packets
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ring.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/pins.h"

namespace crve::verif {

struct Violation {
  std::uint64_t cycle = 0;
  std::string port;
  std::string rule;
  std::string message;
};

class ProtocolChecker {
 public:
  enum class Role { kInitiatorPort, kTargetPort };

  // `expected_src`: the port id an initiator port must drive (-1 = don't
  // check). `map` (optional) enables the chunk-target rule.
  ProtocolChecker(sim::Context& ctx, std::string name,
                  const stbus::PortPins& pins, stbus::ProtocolType type,
                  Role role, int expected_src = -1,
                  const stbus::NodeConfig* map = nullptr);

  // One settled cycle of the port, called by its PortAgent: `now` carries
  // each requested channel's decoded cell, `prev` the previous cycle's view
  // (all idle before the first cycle). The agent skips quiet port-cycles,
  // idle now and before, where no rule can fire.
  void observe(std::uint64_t cycle, const stbus::PortCycle& now,
               const stbus::PortCycle& prev);

  // Design-lint declaration: the full bundle (payload is read only while a
  // channel is requested).
  sim::ClockedOpts declarations() const;

  // Final quiescence checks; call once after the run completes.
  void end_of_test();

  // Consecutive stalled cycles before STARVE fires (0 disables). The
  // default is generous: bandwidth-limited arbitration legitimately stalls
  // a requester for up to its refill window.
  void set_starvation_limit(int cycles) { starve_limit_ = cycles; }

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t violation_count() const { return count_; }
  bool clean() const { return count_ == 0; }

 private:
  struct Outstanding {
    stbus::Opcode opc{};
    std::uint8_t src = 0;
    std::uint8_t tid = 0;
    int rsp_cells = 0;
  };

  void check_request_fire(std::uint64_t cycle, const stbus::RequestCell& cell);
  void check_response_fire(std::uint64_t cycle,
                           const stbus::ResponseCell& cell);
  void report(std::uint64_t cycle, const std::string& rule,
              const std::string& message);
  // Index of the oldest outstanding (src, tid) request, or its size().
  std::size_t find_outstanding(std::uint8_t src, std::uint8_t tid) const;

  std::string name_;
  sim::Context& ctx_;
  const stbus::PortPins& pins_;
  stbus::ProtocolType type_;
  Role role_;
  int expected_src_;
  const stbus::NodeConfig* map_;

  // Request packet assembly state.
  std::vector<stbus::RequestCell> req_pkt_;
  // Response packet assembly state.
  std::vector<stbus::ResponseCell> rsp_pkt_;

  // Outstanding requests, in issue order (per port).
  Ring<Outstanding> outstanding_;
  // Chunk continuation: target the next packet must route to.
  std::optional<int> chunk_target_;

  // Starvation watchdog state.
  int starve_limit_ = 2000;
  int req_stalled_ = 0;
  int rsp_stalled_ = 0;
  bool req_starved_reported_ = false;
  bool rsp_starved_reported_ = false;

  std::vector<Violation> violations_;
  std::uint64_t count_ = 0;
  static constexpr std::size_t kMaxStored = 100;
};

}  // namespace crve::verif

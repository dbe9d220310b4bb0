// Port agent: one clocked process per environment-side port bundle.
//
// The paper's environment attaches a BFM, a monitor and a protocol
// checker to every port's pin bundle (CATG, Fig. 2). All three observe the
// same settled pins, so the agent samples them once per cycle: it reads the
// four handshake pins, decodes each channel's cell at most once into a
// stbus::PortCycle it owns, and hands that view to its parts in a fixed
// order — BFM (InitiatorBfm, then TargetBfm), ProtocolChecker, Monitor.
// Every part reads the pre-edge view and BFMs only schedule writes, so
// the order inside an agent changes no result. Across agents, registration
// order (initiator ports first, then targets) fixes the order in which
// monitor listeners see packets.
//
// Decode policy, per channel: with a checker attached the cell is decoded
// whenever the channel is requested (the hold rules compare a stalled cell
// with the previous cycle's); otherwise only when it fires, and never when
// no part consumes it (an initiator BFM never reads its own request).
//
// Work follows activity: on a quiet port-cycle (both channels idle now and
// on the previous cycle) only the BFMs step, since their random draws and
// pin writes are the stimulus; the checker runs on every other cycle and
// the monitor on cycles where a channel fires.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/context.h"
#include "stbus/pins.h"
#include "verif/bfm_initiator.h"
#include "verif/bfm_target.h"
#include "verif/monitor.h"
#include "verif/protocol_checker.h"

namespace crve::verif {

class PortAgent {
 public:
  // Not owned; each must outlive the agent. Any may be null: a passive
  // agent (checker and/or monitor only) drives nothing.
  struct Parts {
    InitiatorBfm* initiator = nullptr;
    TargetBfm* target = nullptr;
    ProtocolChecker* checker = nullptr;
    Monitor* monitor = nullptr;
  };

  // Registers the clocked process "agent.<name>", declaring the union of
  // the parts' read and write declarations for the design graph.
  PortAgent(sim::Context& ctx, const std::string& name,
            const stbus::PortPins& pins, Parts parts);

  PortAgent(const PortAgent&) = delete;
  PortAgent& operator=(const PortAgent&) = delete;

  // The view the parts saw on the most recent cycle.
  const stbus::PortCycle& view() const { return views_[cur_]; }

 private:
  enum class Decode : std::uint8_t { kNever, kOnFire, kOnRequest };

  void step();

  sim::Context& ctx_;
  const stbus::PortPins& pins_;
  Parts parts_;
  Decode req_decode_ = Decode::kNever;
  Decode rsp_decode_ = Decode::kNever;
  // This cycle's view and the previous one (the checker's hold rules);
  // flipping the index swaps them without copying a cell.
  std::array<stbus::PortCycle, 2> views_;
  std::size_t cur_ = 0;
};

}  // namespace crve::verif

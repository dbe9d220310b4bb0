// Port monitor: the passive traffic-collection element of the environment.
//
// A monitor belongs to one PortPins bundle. Its port's PortAgent hands it
// the settled, decoded view of every cycle, from which it reconstructs
// request and response packets out of granted cells. Everything
// downstream — scoreboard, reference model, functional coverage —
// subscribes to monitors, never to the DUT, so the same instances work
// unchanged on the RTL view, the BCA view, or any wrapped variant (paper
// Fig. 2).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/packet.h"
#include "stbus/pins.h"

namespace crve::verif {

// A fully observed packet, with the cycles each cell was transferred on.
struct ObservedRequest {
  std::vector<stbus::RequestCell> cells;
  std::vector<std::uint64_t> cycles;
  std::uint64_t start_cycle() const { return cycles.front(); }
  std::uint64_t end_cycle() const { return cycles.back(); }
};

struct ObservedResponse {
  std::vector<stbus::ResponseCell> cells;
  std::vector<std::uint64_t> cycles;
  std::uint64_t start_cycle() const { return cycles.front(); }
  std::uint64_t end_cycle() const { return cycles.back(); }
};

// Subscriber interface; all hooks default to no-ops.
class MonitorListener {
 public:
  virtual ~MonitorListener() = default;
  virtual void on_request_cell(const stbus::RequestCell& /*cell*/,
                               std::uint64_t /*cycle*/) {}
  virtual void on_response_cell(const stbus::ResponseCell& /*cell*/,
                                std::uint64_t /*cycle*/) {}
  virtual void on_request_packet(const ObservedRequest& /*pkt*/) {}
  virtual void on_response_packet(const ObservedResponse& /*pkt*/) {}
};

class Monitor {
 public:
  // `name` identifies the port in reports (e.g. "init0", "targ1").
  Monitor(std::string name, const stbus::PortPins& pins);

  // One settled cycle of the port, called by its PortAgent on every cycle
  // a channel fires. Reads only the cells of channels that fire.
  void observe(std::uint64_t cycle, const stbus::PortCycle& now);

  // Design-lint declaration: the full bundle (payload is read only when a
  // channel fires).
  sim::ClockedOpts declarations() const;

  void subscribe(MonitorListener* l) { listeners_.push_back(l); }

  const std::string& name() const { return name_; }
  const stbus::PortPins& pins() const { return pins_; }

  struct Stats {
    std::uint64_t request_cells = 0;
    std::uint64_t response_cells = 0;
    std::uint64_t request_packets = 0;
    std::uint64_t response_packets = 0;
    std::uint64_t busy_cycles = 0;  // cycles with any transfer
    // Request cells per opcode, indexed by static_cast<int>(Opcode). Feeds
    // the verif.opc.* traffic-mix counters in the obs metrics registry.
    std::array<std::uint64_t, stbus::kNumOpcodes> request_opcode_cells{};
  };
  const Stats& stats() const { return stats_; }

  // Packets still being assembled (should be none at end of test).
  bool request_in_progress() const { return !req_acc_.cells.empty(); }
  bool response_in_progress() const { return !rsp_acc_.cells.empty(); }

 private:
  std::string name_;
  const stbus::PortPins& pins_;
  std::vector<MonitorListener*> listeners_;
  ObservedRequest req_acc_;
  ObservedResponse rsp_acc_;
  Stats stats_;
};

}  // namespace crve::verif

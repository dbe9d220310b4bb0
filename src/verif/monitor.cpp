#include "verif/monitor.h"

namespace crve::verif {

Monitor::Monitor(std::string name, const stbus::PortPins& pins)
    : name_(std::move(name)), pins_(pins) {}

sim::ClockedOpts Monitor::declarations() const {
  sim::ClockedOpts decl;
  decl.reads = pins_.all_signals();
  return decl;
}

void Monitor::observe(std::uint64_t cycle, const stbus::PortCycle& now) {
  bool busy = false;

  if (now.request_fires()) {
    busy = true;
    const stbus::RequestCell& cell = now.request;
    ++stats_.request_cells;
    const auto opc = static_cast<std::size_t>(cell.opc);
    if (opc < stats_.request_opcode_cells.size()) {
      ++stats_.request_opcode_cells[opc];
    }
    for (auto* l : listeners_) l->on_request_cell(cell, cycle);
    req_acc_.cells.push_back(cell);
    req_acc_.cycles.push_back(cycle);
    if (cell.eop) {
      ++stats_.request_packets;
      for (auto* l : listeners_) l->on_request_packet(req_acc_);
      // clear() keeps the capacity: the next packet reuses it.
      req_acc_.cells.clear();
      req_acc_.cycles.clear();
    }
  }
  if (now.response_fires()) {
    busy = true;
    const stbus::ResponseCell& cell = now.response;
    ++stats_.response_cells;
    for (auto* l : listeners_) l->on_response_cell(cell, cycle);
    rsp_acc_.cells.push_back(cell);
    rsp_acc_.cycles.push_back(cycle);
    if (cell.eop) {
      ++stats_.response_packets;
      for (auto* l : listeners_) l->on_response_packet(rsp_acc_);
      rsp_acc_.cells.clear();
      rsp_acc_.cycles.clear();
    }
  }
  if (busy) ++stats_.busy_cycles;
}

}  // namespace crve::verif

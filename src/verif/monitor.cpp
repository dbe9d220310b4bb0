#include "verif/monitor.h"

namespace crve::verif {

Monitor::Monitor(sim::Context& ctx, std::string name,
                 const stbus::PortPins& pins)
    : name_(std::move(name)), ctx_(ctx), pins_(pins) {
  // Clocked processes observe the settled values of the cycle that is
  // ending, which is exactly the sampling point a monitor needs. Payload
  // pins are sampled only when a channel fires, so the full bundle is
  // declared for the design-lint view.
  sim::ClockedOpts decl;
  decl.reads = pins.all_signals();
  ctx.add_clocked("mon." + name_, [this] { sample(); }, std::move(decl));
}

void Monitor::sample() {
  // ctx_.cycle() was already advanced for the new cycle; the pins still
  // carry the previous (settled) cycle's values.
  const std::uint64_t cycle = ctx_.cycle() - 1;
  ++stats_.cycles;
  bool busy = false;

  if (pins_.request_fires()) {
    busy = true;
    const stbus::RequestCell cell = pins_.sample_request();
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
  if (pins_.response_fires()) {
    busy = true;
    const stbus::ResponseCell cell = pins_.sample_response();
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

#include "verif/bfm_target.h"

namespace crve::verif {

using stbus::Opcode;
using stbus::RspOpcode;

TargetBfm::TargetBfm(sim::Context& ctx, std::string name,
                     stbus::PortPins& pins, stbus::ProtocolType type,
                     TargetProfile profile, Rng rng)
    : name_(std::move(name)),
      ctx_(ctx),
      pins_(pins),
      type_(type),
      prof_(profile),
      rng_(rng),
      mem_(profile.mem_pattern) {}

sim::ClockedOpts TargetBfm::declarations() const {
  sim::ClockedOpts decl;
  decl.reads = pins_.request_signals();
  decl.reads.push_back(&pins_.gnt);
  decl.reads.push_back(&pins_.r_req);
  decl.reads.push_back(&pins_.r_gnt);
  decl.writes = pins_.response_signals();
  decl.writes.push_back(&pins_.gnt);
  return decl;
}

std::uint8_t TargetBfm::peek(std::uint32_t addr) const {
  return mem_.read(addr);
}

void TargetBfm::poke(std::uint32_t addr, std::uint8_t value) {
  mem_.write(addr, value);
}

void TargetBfm::step(const stbus::PortCycle& now) {
  // Retire the response cell delivered last cycle.
  if (!rsp_cells_.empty() && now.response_fires()) {
    rsp_cells_.pop_front();
    redrive_ = true;
  }
  // Promote the next ready packet; one response packet in flight at a time.
  if (rsp_cells_.empty() && !pending_.empty() &&
      ctx_.cycle() >= pending_.front().ready_cycle) {
    for (auto& c : pending_.front().cells) rsp_cells_.push_back(c);
    pending_.pop_front();
    redrive_ = true;
  }
  if (rsp_cells_.empty()) {
    if (driving_) pins_.idle_response();
  } else if (redrive_) {
    pins_.drive_response(rsp_cells_.front());
  }
  driving_ = !rsp_cells_.empty();
  redrive_ = false;

  // Absorb request cells granted last cycle.
  if (now.request_fires()) {
    req_cells_.push_back(now.request);
    if (req_cells_.back().eop) process_packet();
  }
  // One acceptance draw per cycle keeps the stream timing-independent.
  const bool stall = prof_.gnt_stall_permille > 0 &&
                     rng_.chance(prof_.gnt_stall_permille, 1000);
  pins_.gnt.write(!stall);
}

void TargetBfm::process_packet() {
  const auto& head = req_cells_.front();
  const Opcode opc = head.opc;
  ++stats_.packets;

  // A corrupted DUT can deliver geometrically illegal packets (unaligned
  // sub-bus lanes, straddling atomics). Answer them with ERROR cells — the
  // checkers and scoreboard flag the corruption; the environment itself
  // must never crash on it.
  if (!stbus::lanes_legal(opc, head.add, pins_.bus_bytes) ||
      (stbus::is_atomic(opc) && stbus::size_bytes(opc) > pins_.bus_bytes)) {
    ++stats_.illegal_packets;
    Pending p;
    p.cells = stbus::build_error_response(opc, pins_.bus_bytes, type_,
                                          head.src, head.tid);
    p.ready_cycle =
        ctx_.cycle() + static_cast<std::uint64_t>(prof_.fixed_latency);
    pending_.push_back(std::move(p));
    req_cells_.clear();
    return;
  }

  const bool fail = prof_.error_permille > 0 &&
                    rng_.chance(prof_.error_permille, 1000);
  std::vector<std::uint8_t> rdata;
  if (fail) {
    ++stats_.error_packets;
    if (stbus::is_load(opc) || stbus::is_atomic(opc)) {
      rdata.assign(static_cast<std::size_t>(stbus::size_bytes(opc)), 0);
    }
  } else {
    // Loads and atomics read the pre-store value.
    if (stbus::is_load(opc) || stbus::is_atomic(opc)) {
      const int size = stbus::size_bytes(opc);
      rdata.reserve(static_cast<std::size_t>(size));
      for (int i = 0; i < size; ++i) {
        rdata.push_back(peek(head.add + static_cast<std::uint32_t>(i)));
      }
    }
    // Apply stores honouring byte enables, lane by lane.
    if (stbus::is_store(opc) || opc == Opcode::kSwap4) {
      for (const auto& cell : req_cells_) {
        const std::uint32_t base =
            cell.add & ~static_cast<std::uint32_t>(pins_.bus_bytes - 1);
        for (int lane = 0; lane < pins_.bus_bytes; ++lane) {
          if (cell.be.bit(lane)) {
            mem_.write(base + static_cast<std::uint32_t>(lane),
                       cell.data.byte(lane));
          }
        }
      }
    } else if (opc == Opcode::kRmw4) {
      // Atomic OR of the enabled lanes.
      const auto& cell = req_cells_.front();
      const std::uint32_t base =
          cell.add & ~static_cast<std::uint32_t>(pins_.bus_bytes - 1);
      for (int lane = 0; lane < pins_.bus_bytes; ++lane) {
        if (cell.be.bit(lane)) {
          const std::uint32_t a = base + static_cast<std::uint32_t>(lane);
          mem_.write(a, static_cast<std::uint8_t>(mem_.read(a) |
                                                  cell.data.byte(lane)));
        }
      }
    }
  }

  Pending p;
  p.cells = stbus::build_response(
      opc, head.add, rdata, fail ? RspOpcode::kError : RspOpcode::kOk,
      pins_.bus_bytes, type_, head.src, head.tid);
  const std::uint64_t extra =
      prof_.extra_latency_max > 0 ? rng_.range(0, prof_.extra_latency_max)
                                  : 0;
  p.ready_cycle =
      ctx_.cycle() + static_cast<std::uint64_t>(prof_.fixed_latency) + extra;
  pending_.push_back(std::move(p));
  req_cells_.clear();
}

}  // namespace crve::verif

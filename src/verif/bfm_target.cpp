#include "verif/bfm_target.h"

#include <algorithm>
#include <bit>

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
  if (responding() && now.response_fires()) {
    ++rsp_idx_;
    redrive_ = true;
  }
  // Promote the next ready packet; one response packet in flight at a time.
  if (!responding() && !pending_.empty() &&
      ctx_.cycle() >= pending_.front().ready_cycle) {
    std::swap(rsp_cells_, pending_.front().cells);
    rsp_idx_ = 0;
    pending_.pop_front();
    redrive_ = true;
  }
  if (!responding()) {
    if (driving_) pins_.idle_response();
  } else if (redrive_) {
    pins_.drive_response(rsp_cells_[rsp_idx_]);
  }
  driving_ = responding();
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
  Pending& p = pending_.push();

  // A corrupted DUT can deliver geometrically illegal packets (unaligned
  // sub-bus lanes, straddling atomics). Answer them with ERROR cells — the
  // checkers and scoreboard flag the corruption; the environment itself
  // must never crash on it.
  if (!stbus::lanes_legal(opc, head.add, pins_.bus_bytes) ||
      (stbus::is_atomic(opc) && stbus::size_bytes(opc) > pins_.bus_bytes)) {
    ++stats_.illegal_packets;
    stbus::build_error_response(opc, pins_.bus_bytes, type_, head.src,
                                head.tid, p.cells);
    p.ready_cycle =
        ctx_.cycle() + static_cast<std::uint64_t>(prof_.fixed_latency);
    req_cells_.clear();
    return;
  }

  const bool fail = prof_.error_permille > 0 &&
                    rng_.chance(prof_.error_permille, 1000);
  const bool reads = stbus::is_load(opc) || stbus::is_atomic(opc);
  const std::span<std::uint8_t> rdata(
      rdata_.data(), reads ? static_cast<std::size_t>(stbus::size_bytes(opc))
                           : 0);
  if (fail) {
    ++stats_.error_packets;
    std::fill(rdata.begin(), rdata.end(), std::uint8_t{0});
  } else {
    // Loads and atomics read the pre-store value.
    for (std::size_t i = 0; i < rdata.size(); ++i) {
      rdata[i] = peek(head.add + static_cast<std::uint32_t>(i));
    }
    // Apply stores honouring byte enables, lane by lane (bus_bytes <= 32,
    // so the enables are one word).
    const auto apply = [this](const stbus::RequestCell& cell, auto&& merge) {
      const std::uint32_t base =
          cell.add & ~static_cast<std::uint32_t>(pins_.bus_bytes - 1);
      for (std::uint64_t lanes = cell.be.to_u64(); lanes != 0;
           lanes &= lanes - 1) {
        const int lane = std::countr_zero(lanes);
        const std::uint32_t a = base + static_cast<std::uint32_t>(lane);
        mem_.write(a, merge(a, static_cast<std::uint8_t>(
                                   cell.data.word(lane / 8) >> (8 * (lane % 8)))));
      }
    };
    if (stbus::is_store(opc) || opc == Opcode::kSwap4) {
      for (const auto& cell : req_cells_) {
        apply(cell, [](std::uint32_t, std::uint8_t v) { return v; });
      }
    } else if (opc == Opcode::kRmw4) {
      // Atomic OR of the enabled lanes.
      apply(req_cells_.front(), [this](std::uint32_t a, std::uint8_t v) {
        return static_cast<std::uint8_t>(mem_.read(a) | v);
      });
    }
  }

  stbus::build_response(opc, head.add, rdata,
                        fail ? RspOpcode::kError : RspOpcode::kOk,
                        pins_.bus_bytes, type_, head.src, head.tid, p.cells);
  const std::uint64_t extra =
      prof_.extra_latency_max > 0 ? rng_.range(0, prof_.extra_latency_max)
                                  : 0;
  p.ready_cycle =
      ctx_.cycle() + static_cast<std::uint64_t>(prof_.fixed_latency) + extra;
  req_cells_.clear();
}

}  // namespace crve::verif

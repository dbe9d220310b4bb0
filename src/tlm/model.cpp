#include "tlm/model.h"

#include <algorithm>
#include <stdexcept>

namespace crve::tlm {

using stbus::Opcode;
using stbus::Request;
using stbus::RspOpcode;

Node::Node(stbus::NodeConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate_and_normalize();
  mem_.resize(static_cast<std::size_t>(cfg_.n_targets));
}

Completion Node::transport(const Request& req) {
  Completion c;
  if (stbus::is_load(req.opc) || stbus::is_atomic(req.opc)) {
    c.rdata.assign(static_cast<std::size_t>(stbus::size_bytes(req.opc)), 0);
  }
  const int target = cfg_.route(req.add);
  if (target < 0) {
    c.status = RspOpcode::kError;
    return c;
  }
  c.target = target;
  c.status = apply_at(target, req, c.rdata);
  return c;
}

RspOpcode Node::apply_at(int target, const Request& req,
                         std::span<std::uint8_t> rdata) {
  if (target < 0 || target >= cfg_.n_targets) {
    throw std::out_of_range("tlm::Node::apply_at: bad target");
  }
  const Opcode opc = req.opc;
  const int size = stbus::size_bytes(opc);
  const bool reads = stbus::is_load(opc) || stbus::is_atomic(opc);
  if (reads && static_cast<int>(rdata.size()) != size) {
    throw std::invalid_argument("tlm::Node: rdata size mismatch");
  }
  SparseMemory& mem = mem_[static_cast<std::size_t>(target)];

  if (!stbus::lanes_legal(opc, req.add, cfg_.bus_bytes) ||
      (stbus::is_atomic(opc) && size > cfg_.bus_bytes)) {
    if (reads) std::fill(rdata.begin(), rdata.end(), std::uint8_t{0});
    return RspOpcode::kError;
  }

  // Loads and atomics return the pre-store value.
  if (reads) {
    for (int i = 0; i < size; ++i) {
      rdata[static_cast<std::size_t>(i)] =
          mem.read(req.add + static_cast<std::uint32_t>(i));
    }
  }
  if (stbus::is_store(opc) || opc == Opcode::kSwap4) {
    if (static_cast<int>(req.wdata.size()) != size) {
      throw std::invalid_argument("tlm::Node: wdata size mismatch");
    }
    for (int i = 0; i < size; ++i) {
      mem.write(req.add + static_cast<std::uint32_t>(i),
                req.wdata[static_cast<std::size_t>(i)]);
    }
  } else if (opc == Opcode::kRmw4) {
    if (static_cast<int>(req.wdata.size()) != size) {
      throw std::invalid_argument("tlm::Node: wdata size mismatch");
    }
    for (int i = 0; i < size; ++i) {
      const std::uint32_t a = req.add + static_cast<std::uint32_t>(i);
      mem.write(a, static_cast<std::uint8_t>(
                       mem.read(a) | req.wdata[static_cast<std::size_t>(i)]));
    }
  }
  return RspOpcode::kOk;
}

}  // namespace crve::tlm

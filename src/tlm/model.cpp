#include "tlm/model.h"

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
  const int target = cfg_.route(req.add);
  if (target < 0) {
    Completion c;
    c.status = RspOpcode::kError;
    if (stbus::is_load(req.opc) || stbus::is_atomic(req.opc)) {
      c.rdata.assign(static_cast<std::size_t>(stbus::size_bytes(req.opc)), 0);
    }
    return c;
  }
  return apply_at(target, req);
}

Completion Node::apply_at(int target, const Request& req) {
  if (target < 0 || target >= cfg_.n_targets) {
    throw std::out_of_range("tlm::Node::apply_at: bad target");
  }
  Completion c;
  c.target = target;
  const Opcode opc = req.opc;
  const int size = stbus::size_bytes(opc);
  SparseMemory& mem = mem_[static_cast<std::size_t>(target)];

  if (!stbus::lanes_legal(opc, req.add, cfg_.bus_bytes) ||
      (stbus::is_atomic(opc) && size > cfg_.bus_bytes)) {
    c.status = RspOpcode::kError;
    if (stbus::is_load(opc) || stbus::is_atomic(opc)) {
      c.rdata.assign(static_cast<std::size_t>(size), 0);
    }
    return c;
  }

  // Loads and atomics return the pre-store value.
  if (stbus::is_load(opc) || stbus::is_atomic(opc)) {
    c.rdata.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) {
      c.rdata.push_back(mem.read(req.add + static_cast<std::uint32_t>(i)));
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
  return c;
}

}  // namespace crve::tlm

#include "rtl/register_decoder.h"

#include <stdexcept>
#include <utility>

#include "stbus/packet.h"

namespace crve::rtl {

using stbus::Opcode;
using stbus::RspOpcode;

RegisterDecoder::RegisterDecoder(sim::Context& ctx, std::string name,
                                 stbus::PortPins& port,
                                 stbus::ProtocolType type,
                                 std::uint32_t base_address, int n_regs)
    : name_(std::move(name)),
      port_(port),
      type_(type),
      base_(base_address),
      regs_(static_cast<std::size_t>(n_regs), 0) {
  if (n_regs < 1) throw std::invalid_argument("RegisterDecoder: n_regs");
  // Design-lint declaration: the request payload is sampled only while a
  // request fires; all pin writes happen in comb().
  sim::ClockedOpts edge_decl;
  edge_decl.reads = port_.request_signals();
  edge_decl.reads.push_back(&port_.gnt);
  edge_decl.reads.push_back(&port_.r_req);
  edge_decl.reads.push_back(&port_.r_gnt);
  ctx.add_clocked(name_ + ".edge", [this] { edge(); }, std::move(edge_decl));
  // comb() reads no signals, only the edge-owned response queue: the
  // StateTag is its whole sensitivity list under the compiled schedule. The
  // response payload is driven only while the queue holds cells — declared
  // for the design linter.
  sim::CombOpts opts;
  opts.state = &tag_;
  opts.writes = port_.response_signals();
  ctx.add_comb(name_ + ".comb", [this] { comb(); }, std::move(opts));
}

std::uint32_t RegisterDecoder::reg(int index) const {
  return regs_.at(static_cast<std::size_t>(index));
}

void RegisterDecoder::set_reg(int index, std::uint32_t value) {
  regs_.at(static_cast<std::size_t>(index)) = value;
}

void RegisterDecoder::comb() {
  port_.gnt.write(true);  // always ready to absorb request cells
  if (!rsp_queue_.empty()) {
    port_.drive_response(rsp_queue_.front());
  } else {
    port_.idle_response();
  }
}

void RegisterDecoder::edge() {
  const bool rsp_fire =
      !rsp_queue_.empty() && port_.r_req.read() && port_.r_gnt.read();
  const bool req_fire = port_.req.read() && port_.gnt.read();
  if (!rsp_fire && !req_fire) return;
  if (rsp_fire) {
    rsp_queue_.pop_front();
    tag_.bump();
  }
  if (!req_fire) return;
  req_cells_.push_back(port_.sample_request());
  if (!req_cells_.back().eop) return;

  const auto& head = req_cells_.front();
  const Opcode opc = head.opc;
  const std::uint32_t off = head.add - base_;
  const bool in_range =
      head.add >= base_ &&
      off / 4 < static_cast<std::uint32_t>(regs_.size()) && off % 4 == 0;
  const bool legal = stbus::size_bytes(opc) == 4 && in_range;

  std::vector<std::uint8_t> rdata;
  RspOpcode status = legal ? RspOpcode::kOk : RspOpcode::kError;
  if (legal) {
    auto& r = regs_[off / 4];
    const std::uint32_t old = r;
    if (stbus::is_store(opc) || stbus::is_atomic(opc)) {
      const auto w =
          stbus::extract_request_data(opc, head.add, req_cells_,
                                      port_.bus_bytes);
      std::uint32_t v = 0;
      for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(w[static_cast<std::size_t>(i)])
             << (8 * i);
      }
      if (opc == Opcode::kRmw4) {
        r |= v;  // atomic OR
      } else {
        r = v;   // plain store and SWAP both write the new value
      }
    }
    if (stbus::is_load(opc) || stbus::is_atomic(opc)) {
      const std::uint32_t v = stbus::is_atomic(opc) ? old : r;
      for (int i = 0; i < 4; ++i) {
        rdata.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  } else if (stbus::is_load(opc) || stbus::is_atomic(opc)) {
    rdata.assign(static_cast<std::size_t>(stbus::size_bytes(opc)), 0);
  }
  auto cells = stbus::build_response(opc, head.add, rdata, status,
                                     port_.bus_bytes, type_, head.src,
                                     head.tid);
  rsp_queue_.insert(rsp_queue_.end(), cells.begin(), cells.end());
  tag_.bump();
  req_cells_.clear();
}

}  // namespace crve::rtl

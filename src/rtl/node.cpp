#include "rtl/node.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace crve::rtl {

using stbus::Opcode;
using stbus::PortPins;
using stbus::RequestCell;
using stbus::ResponseCell;
using stbus::RspOpcode;

Node::Node(sim::Context& ctx, stbus::NodeConfig cfg,
           std::vector<PortPins*> initiator_ports,
           std::vector<PortPins*> target_ports, PortPins* prog_port)
    : cfg_(std::move(cfg)),
      iports_(std::move(initiator_ports)),
      tports_(std::move(target_ports)),
      prog_(prog_port) {
  cfg_.validate_and_normalize();
  if (static_cast<int>(iports_.size()) != cfg_.n_initiators ||
      static_cast<int>(tports_.size()) != cfg_.n_targets) {
    throw std::invalid_argument("rtl::Node: port count mismatch");
  }
  if (cfg_.programming_port && prog_ == nullptr) {
    throw std::invalid_argument("rtl::Node: programming port pins missing");
  }
  const int nres = cfg_.num_resources();
  arbs_.reserve(static_cast<std::size_t>(nres));
  for (int r = 0; r < nres; ++r) {
    arbs_.push_back(std::make_unique<Arbiter>(cfg_, r));
  }
  req_owner_.assign(static_cast<std::size_t>(nres), -1);
  treg_.resize(static_cast<std::size_t>(cfg_.n_targets));
  ireg_.resize(static_cast<std::size_t>(cfg_.n_initiators));
  rsp_owner_.assign(static_cast<std::size_t>(cfg_.n_initiators), -1);
  rsp_rr_.assign(static_cast<std::size_t>(cfg_.n_initiators), 0);
  errq_.resize(static_cast<std::size_t>(cfg_.n_initiators));
  stats_.grants.assign(static_cast<std::size_t>(cfg_.n_initiators), 0);
  req_wires_.winner.resize(static_cast<std::size_t>(nres));
  req_wires_.requesting.resize(static_cast<std::size_t>(nres));
  req_wires_.eligible.resize(static_cast<std::size_t>(nres));
  rsp_wires_.source.resize(static_cast<std::size_t>(cfg_.n_initiators));
  rsp_wires_.offer_to.resize(static_cast<std::size_t>(cfg_.n_targets));

  // Design-lint declaration for the edge process: payloads are sampled only
  // for the winning/completing port, so recording sees a fraction of these.
  // All outputs go through the combinational blocks — the edge writes none.
  sim::ClockedOpts edge_decl;
  for (const PortPins* p : iports_) {
    for (const auto* s : p->request_signals()) edge_decl.reads.push_back(s);
    edge_decl.reads.push_back(&p->r_gnt);
  }
  for (const PortPins* p : tports_) {
    for (const auto* s : p->response_signals()) edge_decl.reads.push_back(s);
    edge_decl.reads.push_back(&p->gnt);
  }
  if (prog_ != nullptr) {
    edge_decl.reads.push_back(&prog_->req);
    edge_decl.reads.push_back(&prog_->opc);
    edge_decl.reads.push_back(&prog_->add);
    edge_decl.reads.push_back(&prog_->data);
  }
  ctx.add_clocked(cfg_.name + ".edge", [this] { edge(); },
                  std::move(edge_decl));
  // One combinational process per synthesizable block, arbitration first so
  // the per-port blocks read settled decision wires within the same delta.
  //
  // Compiled-schedule contracts: the arbitration block declares the full
  // pin superset its decision functions may read (discovery only sees the
  // all-idle branches); the per-port blocks that consume the decision
  // "wires" (plain members, not signals) order themselves after it; blocks
  // reading edge-owned registers depend on the node's StateTag.
  sim::CombOpts arb_opts;
  arb_opts.state = &tag_;
  for (const PortPins* p : iports_) {
    arb_opts.reads.push_back(&p->req);
    arb_opts.reads.push_back(&p->add);
    arb_opts.reads.push_back(&p->r_gnt);
  }
  for (const PortPins* p : tports_) {
    arb_opts.reads.push_back(&p->gnt);
    arb_opts.reads.push_back(&p->r_req);
    arb_opts.reads.push_back(&p->r_src);
  }
  ctx.add_comb(cfg_.name + ".arb", [this] { comb_arbitration(); },
               std::move(arb_opts));
  sim::CombOpts after_arb;
  after_arb.after.push_back(cfg_.name + ".arb");
  sim::CombOpts tagged;
  tagged.state = &tag_;
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    ctx.add_comb(cfg_.name + ".ignt" + std::to_string(i),
                 [this, i] { comb_initiator_gnt(i); }, after_arb);
    // Response payload is driven only while a cell is registered; declare
    // the conditional writes for the design-lint view.
    sim::CombOpts irsp_opts = tagged;
    irsp_opts.writes =
        iports_[static_cast<std::size_t>(i)]->response_signals();
    ctx.add_comb(cfg_.name + ".irsp" + std::to_string(i),
                 [this, i] { comb_initiator_rsp(i); }, std::move(irsp_opts));
  }
  for (int t = 0; t < cfg_.n_targets; ++t) {
    sim::CombOpts treq_opts = tagged;
    treq_opts.writes =
        tports_[static_cast<std::size_t>(t)]->request_signals();
    ctx.add_comb(cfg_.name + ".treq" + std::to_string(t),
                 [this, t] { comb_target_req(t); }, std::move(treq_opts));
    sim::CombOpts rgnt_opts = after_arb;
    rgnt_opts.reads.push_back(&tports_[static_cast<std::size_t>(t)]->r_req);
    rgnt_opts.reads.push_back(&tports_[static_cast<std::size_t>(t)]->r_src);
    ctx.add_comb(cfg_.name + ".trgnt" + std::to_string(t),
                 [this, t] { comb_target_rgnt(t); }, std::move(rgnt_opts));
  }
  if (prog_ != nullptr) {
    ctx.add_comb(cfg_.name + ".prog", [this] { comb_prog(); }, tagged);
  }
}

bool Node::idle_cycle() const {
  for (const PortPins* p : iports_) {
    if (p->req.read()) return false;
  }
  for (const PortPins* p : tports_) {
    if (p->r_req.read()) return false;
  }
  for (const auto& r : treg_) {
    if (r.valid) return false;
  }
  for (const auto& r : ireg_) {
    if (r.valid) return false;
  }
  for (const auto& q : errq_) {
    if (!q.empty()) return false;
  }
  if (prog_ != nullptr && (prog_gnt_ || prog_->req.read())) return false;
  for (const auto& a : arbs_) {
    if (!a->quiescent()) return false;
  }
  return true;
}

int Node::request_target(int initiator) const {
  const PortPins& p = *iports_[static_cast<std::size_t>(initiator)];
  if (!p.req.read()) return -1;
  const int t = cfg_.route(static_cast<std::uint32_t>(p.add.read()));
  return t < 0 ? -2 : t;
}

bool Node::treg_can_accept(int target) const {
  const auto& r = treg_[static_cast<std::size_t>(target)];
  // Empty, or the target is consuming the held cell this cycle.
  return !r.valid || tports_[static_cast<std::size_t>(target)]->gnt.read();
}

bool Node::ireg_can_accept(int initiator) const {
  const auto& r = ireg_[static_cast<std::size_t>(initiator)];
  return !r.valid || iports_[static_cast<std::size_t>(initiator)]->r_gnt.read();
}

void Node::decide_requests() {
  const int nres = static_cast<int>(arbs_.size());  // one per resource
  ReqDecision& d = req_wires_;
  std::fill(d.requesting.begin(), d.requesting.end(), 0);
  std::fill(d.eligible.begin(), d.eligible.end(), 0);
  d.gnt_mask = 0;
  d.error_mask = 0;

  for (int i = 0; i < cfg_.n_initiators; ++i) {
    const int t = request_target(i);
    if (t == -1) continue;
    if (t == -2) {
      // Decode error: the node absorbs the packet unconditionally.
      d.gnt_mask |= 1u << i;
      d.error_mask |= 1u << i;
      continue;
    }
    const int r = cfg_.resource_of_target(t);
    d.requesting[static_cast<std::size_t>(r)] |= 1u << i;
    if (treg_can_accept(t)) d.eligible[static_cast<std::size_t>(r)] |= 1u << i;
  }

  for (int r = 0; r < nres; ++r) {
    const int owner = req_owner_[static_cast<std::size_t>(r)];
    const std::uint32_t eligible = d.eligible[static_cast<std::size_t>(r)];
    int w;
    if (owner >= 0) {
      // Allocation held: only the owner may continue its packet/chunk.
      w = ((eligible >> owner) & 1u) ? owner : -1;
    } else {
      w = arbs_[static_cast<std::size_t>(r)]->pick(eligible);
    }
    d.winner[static_cast<std::size_t>(r)] = w;
    if (w >= 0) d.gnt_mask |= 1u << w;
  }
}

void Node::decide_responses() {
  const int T = cfg_.n_targets;
  RspDecision& d = rsp_wires_;
  std::fill(d.source.begin(), d.source.end(), kNoSource);

  // Which target currently offers a response cell to which initiator.
  std::vector<int>& dest = d.offer_to;
  std::fill(dest.begin(), dest.end(), -1);
  for (int t = 0; t < T; ++t) {
    const PortPins& p = *tports_[static_cast<std::size_t>(t)];
    if (!p.r_req.read()) continue;
    const int i = static_cast<int>(p.r_src.read());
    if (i >= 0 && i < cfg_.n_initiators) dest[static_cast<std::size_t>(t)] = i;
  }

  for (int i = 0; i < cfg_.n_initiators; ++i) {
    if (!ireg_can_accept(i)) continue;
    auto offers = [&](int s) {
      if (s < T) return dest[static_cast<std::size_t>(s)] == i;
      return !errq_[static_cast<std::size_t>(i)].empty();
    };
    const int owner = rsp_owner_[static_cast<std::size_t>(i)];
    if (owner >= 0) {
      // Mid-packet: only the owning source may continue.
      if (offers(owner)) d.source[static_cast<std::size_t>(i)] = owner;
      continue;
    }
    const int start = rsp_rr_[static_cast<std::size_t>(i)];
    for (int k = 0; k <= T; ++k) {
      const int s = (start + k) % (T + 1);
      if (offers(s)) {
        d.source[static_cast<std::size_t>(i)] = s;
        break;
      }
    }
  }

  // Shared bus: the response datapath carries one cell per cycle node-wide.
  if (cfg_.arch == stbus::Architecture::kSharedBus) {
    int chosen = -1;
    for (int k = 0; k < cfg_.n_initiators; ++k) {
      const int i = (rsp_shared_rr_ + k) % cfg_.n_initiators;
      if (d.source[static_cast<std::size_t>(i)] != kNoSource) {
        chosen = i;
        break;
      }
    }
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      if (i != chosen) d.source[static_cast<std::size_t>(i)] = kNoSource;
    }
  }
}

void Node::comb_arbitration() {
  decide_requests();
  decide_responses();
}

void Node::comb_initiator_gnt(int i) {
  iports_[static_cast<std::size_t>(i)]->gnt.write(
      (req_wires_.gnt_mask >> i) & 1u);
}

void Node::comb_initiator_rsp(int i) {
  PortPins& p = *iports_[static_cast<std::size_t>(i)];
  const auto& r = ireg_[static_cast<std::size_t>(i)];
  if (r.valid) {
    p.drive_response(r.cell);
  } else {
    p.idle_response();
  }
}

void Node::comb_target_req(int t) {
  PortPins& p = *tports_[static_cast<std::size_t>(t)];
  const auto& r = treg_[static_cast<std::size_t>(t)];
  if (r.valid) {
    p.drive_request(r.cell);
  } else {
    p.idle_request();
  }
}

void Node::comb_target_rgnt(int t) {
  const PortPins& p = *tports_[static_cast<std::size_t>(t)];
  bool g = false;
  if (p.r_req.read()) {
    const int i = static_cast<int>(p.r_src.read());
    if (i >= 0 && i < cfg_.n_initiators) {
      g = rsp_wires_.source[static_cast<std::size_t>(i)] == t;
    }
  }
  tports_[static_cast<std::size_t>(t)]->r_gnt.write(g);
}

void Node::comb_prog() {
  prog_->gnt.write(prog_gnt_);
  prog_->r_req.write(prog_gnt_);
  prog_->r_eop.write(prog_gnt_);
  prog_->r_opc.write(static_cast<std::uint64_t>(
      prog_err_ ? RspOpcode::kError : RspOpcode::kOk));
  prog_->r_data.write(
      crve::Bits(prog_->bus_bytes * 8, prog_is_load_ ? prog_rdata_ : 0));
}

void Node::edge() {
  if (idle_cycle()) {
    // Provably a no-op beyond the cycle counter (arbiters quiescent, no
    // cells in flight): skip the decision recompute entirely.
    ++edge_count_;
    return;
  }
  tag_.bump();
  // The arbitration block's decision for the ending cycle (see req_wires_).
  const ReqDecision& rd = req_wires_;
  const RspDecision& sd = rsp_wires_;
  const int T = cfg_.n_targets;
  const int nres = static_cast<int>(arbs_.size());  // one per resource

  // --- response path: drain, then fill ----------------------------------
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    auto& r = ireg_[static_cast<std::size_t>(i)];
    if (r.valid && iports_[static_cast<std::size_t>(i)]->r_gnt.read()) {
      r.valid = false;
    }
  }
  bool any_rsp = false;
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    const int s = sd.source[static_cast<std::size_t>(i)];
    if (s == kNoSource) continue;
    any_rsp = true;
    ResponseCell cell;
    if (s < T) {
      cell = tports_[static_cast<std::size_t>(s)]->sample_response();
    } else {
      auto& q = errq_[static_cast<std::size_t>(i)];
      ErrDesc& e = q.front();
      cell.opc = RspOpcode::kError;
      cell.data = crve::Bits(cfg_.bus_bytes * 8);
      cell.src = static_cast<std::uint8_t>(i);
      cell.tid = e.tid;
      cell.eop = e.cells_left == 1;
      if (--e.cells_left == 0) q.pop_front();
    }
    ireg_[static_cast<std::size_t>(i)] = {true, cell};
    rsp_owner_[static_cast<std::size_t>(i)] = cell.eop ? -1 : s;
    if (rsp_owner_[static_cast<std::size_t>(i)] == -1) {
      rsp_rr_[static_cast<std::size_t>(i)] = (s + 1) % (T + 1);
    }
    ++stats_.response_cells;
  }
  if (cfg_.arch == stbus::Architecture::kSharedBus && any_rsp) {
    // Advance past the initiator served this cycle.
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      if (sd.source[static_cast<std::size_t>(i)] != kNoSource) {
        rsp_shared_rr_ = (i + 1) % cfg_.n_initiators;
        break;
      }
    }
  }

  // --- request path: drain, then fill ------------------------------------
  for (int t = 0; t < T; ++t) {
    auto& r = treg_[static_cast<std::size_t>(t)];
    if (r.valid && tports_[static_cast<std::size_t>(t)]->gnt.read()) {
      r.valid = false;
    }
  }
  const std::uint64_t next_cycle =
      /* cycle counter only feeds arbiter windows */ ++edge_count_;
  for (int r = 0; r < nres; ++r) {
    const int w = rd.winner[static_cast<std::size_t>(r)];
    if (w >= 0) {
      RequestCell cell = iports_[static_cast<std::size_t>(w)]->sample_request();
      cell.src = static_cast<std::uint8_t>(w);
      const int t = cfg_.route(cell.add);
      treg_[static_cast<std::size_t>(t)] = {true, cell};
      req_owner_[static_cast<std::size_t>(r)] = cell.lck ? w : -1;
      ++stats_.request_cells;
      ++stats_.grants[static_cast<std::size_t>(w)];
    }
    arbs_[static_cast<std::size_t>(r)]->on_edge(
        next_cycle, w, rd.requesting[static_cast<std::size_t>(r)]);
  }

  // --- decode-error sinks -------------------------------------------------
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    if (!((rd.error_mask >> i) & 1u)) continue;
    const RequestCell cell =
        iports_[static_cast<std::size_t>(i)]->sample_request();
    if (cell.eop) {
      errq_[static_cast<std::size_t>(i)].push_back(
          {cell.opc, cell.tid,
           stbus::response_cells(cell.opc, cfg_.bus_bytes, cfg_.type)});
      ++stats_.decode_errors;
    }
  }

  if (prog_ != nullptr) prog_edge();
}

void Node::prog_edge() {
  if (prog_gnt_) {
    // Acknowledge cycle just completed; ignore held req this cycle.
    prog_gnt_ = false;
    return;
  }
  if (!prog_->req.read()) return;
  const auto opc = static_cast<Opcode>(prog_->opc.read());
  const auto addr = static_cast<std::uint32_t>(prog_->add.read());
  const int index = static_cast<int>(addr / 4);
  prog_is_load_ = stbus::is_load(opc);
  prog_err_ = index < 0 || index >= cfg_.n_initiators;
  prog_rdata_ = 0;
  if (!prog_err_) {
    if (prog_is_load_) {
      prog_rdata_ = static_cast<std::uint32_t>(
          arbs_.front()->priority(index));
    } else {
      const auto v = static_cast<int>(prog_->data.read().to_u64() &
                                      0xffffffffull);
      for (auto& a : arbs_) a->set_priority(index, v);
    }
  }
  prog_gnt_ = true;
}

}  // namespace crve::rtl

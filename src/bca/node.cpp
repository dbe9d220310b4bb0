#include "bca/node.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "stbus/packet.h"

namespace crve::bca {

using stbus::Opcode;
using stbus::PortPins;
using stbus::RequestCell;
using stbus::ResponseCell;
using stbus::RspOpcode;

// ---------------------------------------------------------------------------
// ArbState
// ---------------------------------------------------------------------------

ArbState::ArbState(const stbus::NodeConfig& cfg)
    : policy_(cfg.arb),
      n_(cfg.n_initiators),
      prio_(cfg.priorities),
      waited_(static_cast<std::size_t>(cfg.n_initiators), 0),
      deadline_(cfg.latency_deadline),
      tokens_(cfg.bandwidth_quota),
      quota_(cfg.bandwidth_quota),
      window_(cfg.bandwidth_window) {
  for (int i = 0; i < n_; ++i) lru_order_.push_back(i);
}

int ArbState::choose(std::uint32_t eligible) const {
  if (eligible == 0) return -1;
  // First set bit of `mask` at or after the scan pointer, cyclically.
  auto scan_from_ptr = [this](std::uint32_t mask) {
    for (int k = 0; k < n_; ++k) {
      const int i = (next_ptr_ + k) % n_;
      if ((mask >> i) & 1u) return i;
    }
    return -1;
  };
  switch (policy_) {
    case stbus::ArbPolicy::kFixedPriority:
    case stbus::ArbPolicy::kProgrammable: {
      // Highest priority; ties go to the lowest index.
      int best = -1;
      for (int i = 0; i < n_; ++i) {
        if (((eligible >> i) & 1u) &&
            (best < 0 || prio_[static_cast<std::size_t>(i)] >
                             prio_[static_cast<std::size_t>(best)])) {
          best = i;
        }
      }
      return best;
    }
    case stbus::ArbPolicy::kRoundRobin:
      return scan_from_ptr(eligible);
    case stbus::ArbPolicy::kLru: {
      for (int i : lru_order_) {
        if ((eligible >> i) & 1u) return i;
      }
      return -1;
    }
    case stbus::ArbPolicy::kLatencyBased: {
      // Most urgent (waited past deadline); ties go to the lowest index.
      int best = -1;
      long best_u = 0;
      for (int i = 0; i < n_; ++i) {
        if (!((eligible >> i) & 1u)) continue;
        const long u = static_cast<long>(waited_[static_cast<std::size_t>(i)]) -
                       deadline_[static_cast<std::size_t>(i)];
        if (best < 0 || u > best_u) {
          best = i;
          best_u = u;
        }
      }
      return best;
    }
    case stbus::ArbPolicy::kBandwidthLimited: {
      std::uint32_t pool = 0;
      for (int i = 0; i < n_; ++i) {
        if (((eligible >> i) & 1u) &&
            (quota_[static_cast<std::size_t>(i)] == 0 ||
             tokens_[static_cast<std::size_t>(i)] > 0)) {
          pool |= 1u << i;
        }
      }
      // Work-conserving fallback: everyone out of tokens competes anyway.
      return scan_from_ptr(pool != 0 ? pool : eligible);
    }
  }
  return -1;
}

void ArbState::update(std::uint64_t next_cycle, int granted,
                      std::uint32_t requesting, bool holds_allocation,
                      const Faults& faults) {
  for (int i = 0; i < n_; ++i) {
    auto& w = waited_[static_cast<std::size_t>(i)];
    if (((requesting >> i) & 1u) && i != granted) {
      ++w;
    } else {
      w = 0;
    }
  }
  if (granted >= 0) {
    const bool skip_lru = faults.lru_stale_on_chunk && holds_allocation;
    if (!skip_lru) {
      // Relink the granted entry at the back: no node is freed or allocated.
      lru_order_.splice(lru_order_.end(), lru_order_,
                        std::find(lru_order_.begin(), lru_order_.end(),
                                  granted));
    }
    next_ptr_ = (granted + 1) % n_;
    auto& t = tokens_[static_cast<std::size_t>(granted)];
    if (quota_[static_cast<std::size_t>(granted)] > 0 && t > 0) --t;
  }
  if (window_ > 0 && next_cycle % static_cast<std::uint64_t>(window_) == 0) {
    tokens_ = quota_;
  }
}

bool ArbState::quiescent() const {
  for (const int w : waited_) {
    if (w != 0) return false;
  }
  return window_ <= 0 || tokens_ == quota_;
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

Node::Node(sim::Context& ctx, stbus::NodeConfig cfg,
           std::vector<PortPins*> initiator_ports,
           std::vector<PortPins*> target_ports, PortPins* prog_port,
           Faults faults)
    : cfg_(std::move(cfg)),
      iports_(std::move(initiator_ports)),
      tports_(std::move(target_ports)),
      prog_(prog_port),
      faults_(faults) {
  cfg_.validate_and_normalize();
  if (static_cast<int>(iports_.size()) != cfg_.n_initiators ||
      static_cast<int>(tports_.size()) != cfg_.n_targets) {
    throw std::invalid_argument("bca::Node: port count mismatch");
  }
  if (cfg_.programming_port && prog_ == nullptr) {
    throw std::invalid_argument("bca::Node: programming port pins missing");
  }
  const int nres = cfg_.num_resources();
  arb_.assign(static_cast<std::size_t>(nres), ArbState(cfg_));
  allocation_.assign(static_cast<std::size_t>(nres), -1);
  to_target_.resize(static_cast<std::size_t>(cfg_.n_targets));
  to_initiator_.resize(static_cast<std::size_t>(cfg_.n_initiators));
  rsp_allocation_.assign(static_cast<std::size_t>(cfg_.n_initiators), -1);
  rsp_next_.assign(static_cast<std::size_t>(cfg_.n_initiators), 0);
  err_pending_.resize(static_cast<std::size_t>(cfg_.n_initiators));
  out_.req_winner.resize(static_cast<std::size_t>(nres));
  out_.req_mask.resize(static_cast<std::size_t>(nres));
  out_.ready.resize(static_cast<std::size_t>(nres));
  out_.rsp_pick.resize(static_cast<std::size_t>(cfg_.n_initiators));
  out_.offers.resize(static_cast<std::size_t>(cfg_.n_initiators));

  // Design-lint declaration for the tick process: payload pins are sampled
  // only for ports with traffic in flight; all pin writes go through
  // drive_pins().
  sim::ClockedOpts tick_decl;
  for (const PortPins* p : iports_) {
    for (const auto* s : p->request_signals()) tick_decl.reads.push_back(s);
    tick_decl.reads.push_back(&p->r_gnt);
  }
  for (const PortPins* p : tports_) {
    for (const auto* s : p->response_signals()) tick_decl.reads.push_back(s);
    tick_decl.reads.push_back(&p->gnt);
  }
  if (prog_ != nullptr) {
    tick_decl.reads.push_back(&prog_->req);
    tick_decl.reads.push_back(&prog_->opc);
    tick_decl.reads.push_back(&prog_->add);
    tick_decl.reads.push_back(&prog_->data);
  }
  ctx.add_clocked(cfg_.name + ".tick", [this] { tick(); },
                  std::move(tick_decl));
  // Declared read-set for the compiled schedule: the exact pin superset
  // evaluate()/drive_pins() may read. Discovery alone would miss the
  // data-dependent reads (route(add) behind req, slot checks behind queue
  // occupancy). Internal tick-owned state is covered by the StateTag.
  sim::CombOpts drive_opts;
  drive_opts.state = &tag_;
  for (const PortPins* p : iports_) {
    drive_opts.reads.push_back(&p->req);
    drive_opts.reads.push_back(&p->add);
    drive_opts.reads.push_back(&p->r_gnt);
  }
  for (const PortPins* p : tports_) {
    drive_opts.reads.push_back(&p->gnt);
    drive_opts.reads.push_back(&p->r_req);
    drive_opts.reads.push_back(&p->r_src);
  }
  // Payload slices are driven only while cells are queued — declared for
  // the design-lint view.
  for (const PortPins* p : iports_) {
    for (const auto* s : p->response_signals()) {
      drive_opts.writes.push_back(s);
    }
  }
  for (const PortPins* p : tports_) {
    for (const auto* s : p->request_signals()) {
      drive_opts.writes.push_back(s);
    }
  }
  ctx.add_comb(cfg_.name + ".drive", [this] { drive_pins(); },
               std::move(drive_opts));
}

bool Node::idle_cycle() const {
  if (target_full_ != 0 || initiator_full_ != 0 || errors_pending_ != 0) {
    return false;
  }
  for (const PortPins* p : iports_) {
    if (p->req.read()) return false;
  }
  for (const PortPins* p : tports_) {
    if (p->r_req.read()) return false;
  }
  if (prog_ != nullptr && (prog_ack_ || prog_->req.read())) return false;
  for (const auto& a : arb_) {
    if (!a.quiescent()) return false;
  }
  return true;
}

bool Node::target_slot_free(int target) const {
  return ((target_full_ >> target) & 1u) == 0 ||
         tports_[static_cast<std::size_t>(target)]->gnt.read();
}

bool Node::initiator_slot_free(int initiator) const {
  return ((initiator_full_ >> initiator) & 1u) == 0 ||
         iports_[static_cast<std::size_t>(initiator)]->r_gnt.read();
}

void Node::fill_target_slot(int target) {
  target_full_ |= 1u << target;
  target_moved_ |= 1u << target;
}

void Node::empty_target_slot(int target) {
  target_full_ &= ~(1u << target);
  target_moved_ |= 1u << target;
}

void Node::fill_initiator_slot(int initiator) {
  initiator_full_ |= 1u << initiator;
  initiator_moved_ |= 1u << initiator;
}

void Node::empty_initiator_slot(int initiator) {
  initiator_full_ &= ~(1u << initiator);
  initiator_moved_ |= 1u << initiator;
}

void Node::evaluate() {
  const int nres = static_cast<int>(arb_.size());  // one per resource
  const int T = cfg_.n_targets;
  Outcome& out = out_;
  std::fill(out.req_mask.begin(), out.req_mask.end(), 0);
  std::fill(out.ready.begin(), out.ready.end(), 0);
  std::fill(out.rsp_pick.begin(), out.rsp_pick.end(), -1);
  std::fill(out.offers.begin(), out.offers.end(), 0);
  out.grants = 0;
  out.error_sinks = 0;

  // Request side.
  std::vector<std::uint32_t>& ready = out.ready;
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    const PortPins& p = *iports_[static_cast<std::size_t>(i)];
    if (!p.req.read()) continue;
    const int t = cfg_.route(static_cast<std::uint32_t>(p.add.read()));
    if (t < 0) {
      out.grants |= 1u << i;
      out.error_sinks |= 1u << i;
      continue;
    }
    const int r = cfg_.resource_of_target(t);
    out.req_mask[static_cast<std::size_t>(r)] |= 1u << i;
    if (target_slot_free(t)) ready[static_cast<std::size_t>(r)] |= 1u << i;
  }
  for (int r = 0; r < nres; ++r) {
    const int holder =
        faults_.grant_during_lock ? -1 : allocation_[static_cast<std::size_t>(r)];
    int w;
    if (holder >= 0) {
      w = ((ready[static_cast<std::size_t>(r)] >> holder) & 1u) ? holder : -1;
    } else {
      w = arb_[static_cast<std::size_t>(r)].choose(
          ready[static_cast<std::size_t>(r)]);
    }
    out.req_winner[static_cast<std::size_t>(r)] = w;
    if (w >= 0) out.grants |= 1u << w;
  }

  // Response side.
  for (int t = 0; t < T; ++t) {
    const PortPins& p = *tports_[static_cast<std::size_t>(t)];
    if (p.r_req.read()) {
      const int i = static_cast<int>(p.r_src.read());
      if (i >= 0 && i < cfg_.n_initiators) {
        out.offers[static_cast<std::size_t>(i)] |= std::uint64_t{1} << t;
      }
    }
  }
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    if (!initiator_slot_free(i)) continue;
    std::uint64_t offers = out.offers[static_cast<std::size_t>(i)];
    if (!err_pending_[static_cast<std::size_t>(i)].empty()) {
      offers |= std::uint64_t{1} << T;
    }
    const int holder = rsp_allocation_[static_cast<std::size_t>(i)];
    if (holder >= 0) {
      if ((offers >> holder) & 1u) {
        out.rsp_pick[static_cast<std::size_t>(i)] = holder;
      }
      continue;
    }
    if (offers == 0) continue;
    // The first offering source at or after the scan pointer, cyclically.
    const int next = rsp_next_[static_cast<std::size_t>(i)];
    const std::uint64_t ahead = offers >> next;
    out.rsp_pick[static_cast<std::size_t>(i)] =
        ahead != 0 ? next + std::countr_zero(ahead) : std::countr_zero(offers);
  }
  if (cfg_.arch == stbus::Architecture::kSharedBus) {
    int keep = -1;
    for (int k = 0; k < cfg_.n_initiators; ++k) {
      const int i = (rsp_shared_next_ + k) % cfg_.n_initiators;
      if (out.rsp_pick[static_cast<std::size_t>(i)] != -1) {
        keep = i;
        break;
      }
    }
    for (int i = 0; i < cfg_.n_initiators; ++i) {
      if (i != keep) out.rsp_pick[static_cast<std::size_t>(i)] = -1;
    }
  }
}

void Node::drive_pins() {
  evaluate();
  const Outcome& out = out_;
  const int T = cfg_.n_targets;

  for (int i = 0; i < cfg_.n_initiators; ++i) {
    iports_[static_cast<std::size_t>(i)]->gnt.write((out.grants >> i) & 1u);
  }
  // Payload pins: only ports whose slot moved since the last drive.
  for (std::uint32_t m = target_moved_ & target_full_; m != 0; m &= m - 1) {
    const auto t = static_cast<std::size_t>(std::countr_zero(m));
    tports_[t]->drive_request(to_target_[t]);
  }
  for (std::uint32_t m = target_moved_ & ~target_full_; m != 0; m &= m - 1) {
    const int t = std::countr_zero(m);
    if (t >= T) break;
    tports_[static_cast<std::size_t>(t)]->idle_request();
  }
  target_moved_ = 0;
  for (int t = 0; t < T; ++t) {
    const PortPins& p = *tports_[static_cast<std::size_t>(t)];
    bool g = false;
    if (p.r_req.read()) {
      const int i = static_cast<int>(p.r_src.read());
      if (i >= 0 && i < cfg_.n_initiators) {
        g = out.rsp_pick[static_cast<std::size_t>(i)] == t;
      }
    }
    tports_[static_cast<std::size_t>(t)]->r_gnt.write(g);
  }
  for (std::uint32_t m = initiator_moved_ & initiator_full_; m != 0;
       m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    iports_[i]->drive_response(to_initiator_[i]);
  }
  for (std::uint32_t m = initiator_moved_ & ~initiator_full_; m != 0;
       m &= m - 1) {
    const int i = std::countr_zero(m);
    if (i >= cfg_.n_initiators) break;
    iports_[static_cast<std::size_t>(i)]->idle_response();
  }
  initiator_moved_ = 0;
  if (prog_ != nullptr && prog_moved_) {
    prog_moved_ = false;
    prog_->gnt.write(prog_ack_);
    prog_->r_req.write(prog_ack_);
    prog_->r_eop.write(prog_ack_);
    prog_->r_opc.write(static_cast<std::uint64_t>(
        prog_bad_ ? RspOpcode::kError : RspOpcode::kOk));
    prog_->r_data.write(
        crve::Bits(prog_->bus_bytes * 8, prog_load_ ? prog_value_ : 0));
  }
}

void Node::tick() {
  ++ticks_;
  if (idle_cycle()) return;  // provably a no-op beyond the cycle counter
  tag_.bump();
  const Outcome& out = out_;
  const int T = cfg_.n_targets;
  const int nres = static_cast<int>(arb_.size());  // one per resource

  // Response slots: retire delivered cells, then land the picked cells.
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    if (((initiator_full_ >> i) & 1u) != 0 &&
        iports_[static_cast<std::size_t>(i)]->r_gnt.read()) {
      empty_initiator_slot(i);
    }
  }
  std::uint32_t landed = 0;
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    const int s = out.rsp_pick[static_cast<std::size_t>(i)];
    if (s < 0) continue;
    landed |= 1u << i;
    ResponseCell& cell = to_initiator_[static_cast<std::size_t>(i)];
    if (s < T) {
      tports_[static_cast<std::size_t>(s)]->sample_response(cell);
    } else {
      auto& q = err_pending_[static_cast<std::size_t>(i)];
      PendingError& e = q.front();
      cell.opc = RspOpcode::kError;
      cell.data = crve::Bits(cfg_.bus_bytes * 8);
      cell.src = static_cast<std::uint8_t>(i);
      cell.tid = e.tid;
      cell.eop = e.cells_left == 1 ||
                 (faults_.eop_one_cell_early && e.cells_left == 2);
      if (cell.eop) {
        q.pop_front();
        --errors_pending_;
      } else {
        --e.cells_left;
      }
    }
    rsp_allocation_[static_cast<std::size_t>(i)] = cell.eop ? -1 : s;
    if (cell.eop) {
      rsp_next_[static_cast<std::size_t>(i)] = (s + 1) % (T + 1);
    }
    fill_initiator_slot(i);
  }
  if (faults_.response_src_swap && std::popcount(landed) == 2) {
    const int a = std::countr_zero(landed);
    const int b = std::countr_zero(landed & (landed - 1));
    std::swap(to_initiator_[static_cast<std::size_t>(a)],
              to_initiator_[static_cast<std::size_t>(b)]);
  }
  if (cfg_.arch == stbus::Architecture::kSharedBus && landed != 0) {
    rsp_shared_next_ = (std::countr_zero(landed) + 1) % cfg_.n_initiators;
  }

  // Request slots: retire consumed cells, then land granted cells.
  std::uint32_t was_draining = 0;  // per target
  for (int t = 0; t < T; ++t) {
    if (((target_full_ >> t) & 1u) != 0 &&
        tports_[static_cast<std::size_t>(t)]->gnt.read()) {
      was_draining |= 1u << t;
      empty_target_slot(t);
    }
  }
  for (int r = 0; r < nres; ++r) {
    const int w = out.req_winner[static_cast<std::size_t>(r)];
    bool locks = false;
    bool continuation = false;  // cell continues/closes a held allocation
    if (w >= 0) {
      continuation = allocation_[static_cast<std::size_t>(r)] == w;
      const PortPins& from = *iports_[static_cast<std::size_t>(w)];
      // A winner always routes to a target (decode errors sink instead).
      const int t = cfg_.route(static_cast<std::uint32_t>(from.add.read()));
      RequestCell& cell = to_target_[static_cast<std::size_t>(t)];
      from.sample_request(cell);
      cell.src = static_cast<std::uint8_t>(w);
      locks = cell.lck;
      if (faults_.byte_enable_dropped && stbus::is_store(cell.opc)) {
        cell.be = crve::Bits::all_ones(cfg_.bus_bytes);
      }
      if (faults_.opcode_corrupt_on_busy && ((was_draining >> t) & 1u)) {
        cell.opc = static_cast<Opcode>(static_cast<std::uint8_t>(cell.opc) ^ 1u);
      }
      fill_target_slot(t);
      allocation_[static_cast<std::size_t>(r)] = locks ? w : -1;
    }
    arb_[static_cast<std::size_t>(r)].update(
        ticks_, w, out.req_mask[static_cast<std::size_t>(r)],
        locks || continuation, faults_);
  }

  // Decode-error sinks.
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    if (!((out.error_sinks >> i) & 1u)) continue;
    const RequestCell cell =
        iports_[static_cast<std::size_t>(i)]->sample_request();
    if (cell.eop) {
      err_pending_[static_cast<std::size_t>(i)].push_back(
          {cell.opc, cell.tid,
           stbus::response_cells(cell.opc, cfg_.bus_bytes, cfg_.type)});
      ++errors_pending_;
    }
  }

  if (prog_ != nullptr) handle_prog();
}

void Node::handle_prog() {
  if (prog_ack_) {
    prog_ack_ = false;
    prog_moved_ = true;
    return;
  }
  if (!prog_->req.read()) return;
  const auto opc = static_cast<Opcode>(prog_->opc.read());
  const auto addr = static_cast<std::uint32_t>(prog_->add.read());
  const int index = static_cast<int>(addr / 4);
  prog_load_ = stbus::is_load(opc);
  prog_bad_ = index < 0 || index >= cfg_.n_initiators;
  prog_value_ = 0;
  if (!prog_bad_) {
    if (prog_load_) {
      prog_value_ =
          static_cast<std::uint32_t>(arb_.front().read_priority(index));
    } else if (!faults_.priority_register_ignored) {
      const auto v =
          static_cast<int>(prog_->data.read().to_u64() & 0xffffffffull);
      for (auto& a : arb_) a.write_priority(index, v);
    }
  }
  prog_ack_ = true;
  prog_moved_ = true;
}

}  // namespace crve::bca

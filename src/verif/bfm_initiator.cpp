#include "verif/bfm_initiator.h"

#include <stdexcept>

namespace crve::verif {

using stbus::Opcode;
using stbus::ProtocolType;
using stbus::Request;
using stbus::RspOpcode;

namespace {
constexpr int kTidSlots = 256;
}

InitiatorBfm::InitiatorBfm(sim::Context& ctx, std::string name,
                           stbus::PortPins& pins, ProtocolType type,
                           int src_id, const stbus::NodeConfig& map,
                           InitiatorProfile profile, Rng rng)
    : InitiatorBfm(ctx, std::move(name), pins, type, src_id, map,
                   std::move(profile), rng, {}) {}

InitiatorBfm::InitiatorBfm(sim::Context& ctx, std::string name,
                           stbus::PortPins& pins, ProtocolType type,
                           int src_id, const stbus::NodeConfig& map,
                           InitiatorProfile profile, Rng rng,
                           std::vector<Request> directed)
    : name_(std::move(name)),
      ctx_(ctx),
      pins_(pins),
      type_(type),
      src_(src_id),
      map_(map),
      prof_(std::move(profile)),
      rng_(rng),
      directed_(std::move(directed)),
      flights_(kTidSlots) {
  map_.validate_and_normalize();
  if (prof_.windows.empty() && directed_.empty()) {
    // Default: one size-aligned window per address-map range.
    for (const auto& r : map_.address_map) {
      prof_.windows.push_back(r);
    }
  }
  for (const auto& w : prof_.windows) {
    if (w.base % 64 != 0 || w.size % 64 != 0 || w.size < 64) {
      throw std::invalid_argument(
          "InitiatorProfile: windows must be 64-byte aligned and sized");
    }
  }
  if (!directed_.empty()) {
    prof_.n_transactions = static_cast<int>(directed_.size());
  }
  if (prof_.max_outstanding < 1 || prof_.max_outstanding > 16) {
    throw std::invalid_argument("InitiatorProfile: max_outstanding in 1..16");
  }
  // Size-mask the opcode weight table once; every random pick draws from it.
  prof_.opcode_weights.resize(stbus::kNumOpcodes, 0);
  for (int i = 0; i < stbus::kNumOpcodes; ++i) {
    const auto opc = static_cast<Opcode>(i);
    // Atomics are single-cell and cannot straddle beats.
    if (stbus::size_bytes(opc) > prof_.max_size_bytes ||
        (stbus::is_atomic(opc) && stbus::size_bytes(opc) > pins.bus_bytes)) {
      prof_.opcode_weights[static_cast<std::size_t>(i)] = 0;
    }
  }
}

sim::ClockedOpts InitiatorBfm::declarations() const {
  sim::ClockedOpts decl;
  decl.reads = pins_.response_signals();
  decl.reads.push_back(&pins_.req);
  decl.reads.push_back(&pins_.gnt);
  decl.reads.push_back(&pins_.r_gnt);
  decl.writes = pins_.request_signals();
  decl.writes.push_back(&pins_.r_gnt);
  return decl;
}

bool InitiatorBfm::done() const {
  return issued_ >= prof_.n_transactions && outstanding_ == 0 &&
         cells_.empty() && chunk_left_ == 0;
}

double InitiatorBfm::mean_latency() const {
  return completed_ > 0 ? static_cast<double>(latency_sum_) / completed_ : 0.0;
}

double InitiatorBfm::mean_total_latency() const {
  if (history_.empty()) return 0.0;
  double sum = 0;
  for (const auto& tx : history_) {
    sum += static_cast<double>(tx.done_cycle - tx.gen_cycle);
  }
  return sum / static_cast<double>(history_.size());
}

std::uint8_t InitiatorBfm::alloc_tid() const {
  for (int t = 0; t < kTidSlots; ++t) {
    if (!flights_[static_cast<std::size_t>(t)].live) {
      return static_cast<std::uint8_t>(t);
    }
  }
  throw std::logic_error("InitiatorBfm: no free tid");
}

void InitiatorBfm::step(const stbus::PortCycle& now) {
  const std::uint64_t prev_cycle = ctx_.cycle() - 1;

  // --- response channel ---------------------------------------------------
  if (now.response_fires()) {
    const stbus::ResponseCell& cell = now.response;
    // Type3 responses are matched by tid; Type2 shares tid 0 and is strictly
    // ordered, so the oldest flight is the one completing.
    Flight* fl = nullptr;
    if (type_ == ProtocolType::kType3) {
      if (flights_[cell.tid].live) fl = &flights_[cell.tid];
    } else if (!fifo_.empty()) {
      fl = &fifo_.front();
    }
    if (fl != nullptr) {
      if (prof_.keep_history) fl->rsp.push_back(cell);
      if (cell.eop) {
        ++completed_;
        --outstanding_;
        latency_sum_ += prev_cycle - fl->issue_cycle;
        if (prof_.keep_history) {
          CompletedTx tx;
          tx.request = fl->request;
          tx.response = fl->rsp;
          tx.gen_cycle = fl->gen_cycle;
          tx.issue_cycle = fl->issue_cycle;
          tx.done_cycle = prev_cycle;
          for (const auto& c : fl->rsp) {
            if (c.opc != RspOpcode::kOk) tx.status = RspOpcode::kError;
          }
          if (stbus::is_load(fl->request.opc) ||
              stbus::is_atomic(fl->request.opc)) {
            tx.rdata = stbus::extract_response_data(
                fl->request.opc, fl->request.add, fl->rsp, pins_.bus_bytes);
          }
          history_.push_back(std::move(tx));
        }
        if (type_ == ProtocolType::kType3) {
          flights_[cell.tid].live = false;
        } else {
          fifo_.pop_front();
        }
        if (outstanding_ == 0) pipeline_window_ = -2;  // -2 = unconstrained
      }
    }
  }
  // One backpressure draw per cycle, unconditionally, so the random stream
  // does not depend on DUT timing.
  const bool stall =
      prof_.rsp_stall_permille > 0 &&
      rng_.chance(prof_.rsp_stall_permille, 1000);
  pins_.r_gnt.write(!stall);

  // --- request channel ----------------------------------------------------
  if (!cells_.empty() && now.request_fires()) {
    if (cell_idx_ == 0) {
      if (type_ == ProtocolType::kType3) {
        auto& fl = flights_[req_.tid];
        if (fl.live) fl.issue_cycle = prev_cycle;
      } else if (!fifo_.empty()) {
        fifo_.back().issue_cycle = prev_cycle;
      }
    }
    ++cell_idx_;
    redrive_ = true;
    if (cell_idx_ == cells_.size()) {
      cells_.clear();
      cell_idx_ = 0;
    }
  }

  if (draining_ && outstanding_ == 0) draining_ = false;
  if (cells_.empty()) {
    if (chunk_left_ > 0) {
      generate_next();  // a chunk must be continued to closure
    } else if (!draining_ && issued_ < prof_.n_transactions &&
               outstanding_ < prof_.max_outstanding) {
      const bool idle = prof_.idle_permille > 0 &&
                        rng_.chance(prof_.idle_permille, 1000);
      // Periodically drain the Type2 pipeline so window choice re-opens.
      if (directed_.empty() && type_ == ProtocolType::kType2 &&
          outstanding_ > 0 && prof_.pipeline_drain_permille > 0 &&
          rng_.chance(prof_.pipeline_drain_permille, 1000)) {
        draining_ = true;
      } else if (!idle) {
        generate_next();
      }
    }
  }

  if (cells_.empty()) {
    if (driving_) pins_.idle_request();
  } else if (redrive_) {
    pins_.drive_request(cells_[cell_idx_]);
  }
  driving_ = !cells_.empty();
  redrive_ = false;
}

void InitiatorBfm::generate_next() {
  // req_ is rebuilt field by field: its wdata keeps its capacity.
  Request& req = req_;
  if (!directed_.empty()) {
    if (directed_idx_ >= directed_.size()) return;
    req = directed_[directed_idx_++];
    req.src = static_cast<std::uint8_t>(src_);
    if (type_ == ProtocolType::kType3) req.tid = alloc_tid();
  } else {
    // Opcode: weighted pick over the size-masked table.
    req.opc = static_cast<Opcode>(rng_.weighted(prof_.opcode_weights));
    req.lck = false;
    const int size = stbus::size_bytes(req.opc);

    // Window: chunks and Type2 pipelining pin the stream to one window.
    int win;
    if (chunk_left_ > 0) {
      win = chunk_window_;
    } else if (type_ == ProtocolType::kType2 && outstanding_ > 0 &&
               pipeline_window_ != -2) {
      win = pipeline_window_;
    } else if (prof_.decode_error_permille > 0 && prof_.error_window &&
               rng_.chance(prof_.decode_error_permille, 1000)) {
      win = -1;
    } else {
      win = rng_.index(prof_.windows.size());
    }
    const stbus::AddressRange& range =
        win < 0 ? *prof_.error_window
                : prof_.windows[static_cast<std::size_t>(win)];
    const std::uint32_t slots = range.size / static_cast<std::uint32_t>(size);
    req.add = range.base +
              static_cast<std::uint32_t>(rng_.range(0, slots - 1)) *
                  static_cast<std::uint32_t>(size);
    req.wdata.clear();
    if (stbus::is_store(req.opc) || stbus::is_atomic(req.opc)) {
      req.wdata.resize(static_cast<std::size_t>(size));
      for (auto& b : req.wdata) {
        b = static_cast<std::uint8_t>(rng_.range(0, 255));
      }
    }
    req.src = static_cast<std::uint8_t>(src_);
    req.tid = type_ == ProtocolType::kType3 ? alloc_tid() : 0;

    // Chunking.
    if (chunk_left_ > 0) {
      --chunk_left_;
      req.lck = chunk_left_ > 0;
    } else if (win >= 0 && prof_.chunk_permille > 0 &&
               prof_.max_chunk_packets > 1 &&
               rng_.chance(prof_.chunk_permille, 1000)) {
      chunk_left_ = static_cast<int>(
          rng_.range(1, static_cast<std::uint64_t>(
                            prof_.max_chunk_packets - 1)));
      chunk_window_ = win;
      req.lck = true;
    }
    pipeline_window_ = win;
  }

  stbus::build_request(req, pins_.bus_bytes, type_, cells_);
  cells_.back().lck = req.lck;
  cell_idx_ = 0;
  redrive_ = true;
  Flight& fl = type_ == ProtocolType::kType3 ? flights_[req.tid] : fifo_.push();
  fl.live = true;
  fl.gen_cycle = ctx_.cycle();
  fl.issue_cycle = ctx_.cycle();
  if (prof_.keep_history) {
    fl.request = req;
    fl.rsp.clear();
  }
  ++outstanding_;
  ++issued_;
  if (issue_hook_) issue_hook_(req, ctx_.cycle());
}

}  // namespace crve::verif

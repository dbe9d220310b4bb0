#include "verif/reference_model.h"

#include <algorithm>
#include <stdexcept>

#include "common/mem_pattern.h"
#include "stbus/packet.h"

namespace crve::verif {

using stbus::Opcode;
using stbus::Request;
using stbus::RspOpcode;

class ReferenceTap : public MonitorListener {
 public:
  ReferenceTap(ReferenceModel& rm, int id, bool initiator)
      : rm_(rm), id_(id), initiator_(initiator) {}
  void on_request_packet(const ObservedRequest& pkt) override {
    if (initiator_) {
      rm_.initiator_request(id_, pkt);
    } else {
      rm_.target_request(id_, pkt);
    }
  }
  void on_response_packet(const ObservedResponse& pkt) override {
    if (initiator_) rm_.initiator_response(id_, pkt);
  }

 private:
  ReferenceModel& rm_;
  int id_;
  bool initiator_;
};

ReferenceModel::ReferenceModel(const stbus::NodeConfig& cfg,
                               std::vector<std::uint64_t> mem_patterns)
    : cfg_(cfg), model_([&] {
        auto c = cfg;
        c.validate_and_normalize();
        return c;
      }()) {
  cfg_.validate_and_normalize();
  if (static_cast<int>(mem_patterns.size()) != cfg_.n_targets) {
    throw std::invalid_argument("ReferenceModel: one pattern per target");
  }
  pending_.resize(static_cast<std::size_t>(cfg_.n_initiators));
  // Rebuild the model's memories with the targets' fill patterns.
  for (int t = 0; t < cfg_.n_targets; ++t) {
    model_.memory(t) = SparseMemory(mem_patterns[static_cast<std::size_t>(t)]);
  }
}

ReferenceModel::~ReferenceModel() = default;

void ReferenceModel::attach_initiator(Monitor& mon, int id) {
  taps_.push_back(std::make_unique<ReferenceTap>(*this, id, true));
  mon.subscribe(taps_.back().get());
}

void ReferenceModel::attach_target(Monitor& mon, int id) {
  taps_.push_back(std::make_unique<ReferenceTap>(*this, id, false));
  mon.subscribe(taps_.back().get());
}

void ReferenceModel::fail(std::uint64_t cycle, const std::string& where,
                          const std::string& message) {
  ++count_;
  if (errors_.size() < kMaxStored) errors_.push_back({cycle, where, message});
}

namespace {

// Reassembles the logical Request from an observed packet.
Request to_request(const ObservedRequest& pkt, int bus_bytes) {
  const auto& head = pkt.cells.front();
  Request req;
  req.opc = head.opc;
  req.add = head.add;
  req.src = head.src;
  req.tid = head.tid;
  if (stbus::is_store(req.opc) || stbus::is_atomic(req.opc)) {
    req.wdata =
        stbus::extract_request_data(req.opc, req.add, pkt.cells, bus_bytes);
  }
  return req;
}

}  // namespace

void ReferenceModel::initiator_request(int id, const ObservedRequest& pkt) {
  const auto& head = pkt.cells.front();
  if (cfg_.route(head.add) >= 0) return;  // reaches a target port later
  // Decode error: predict the node-generated ERROR response.
  Prediction p;
  p.opc = head.opc;
  p.add = head.add;
  p.tid = head.tid;
  p.status = RspOpcode::kError;
  if (stbus::is_load(head.opc) || stbus::is_atomic(head.opc)) {
    p.rdata.assign(static_cast<std::size_t>(stbus::size_bytes(head.opc)), 0);
  }
  pending_[static_cast<std::size_t>(id)].push_back(std::move(p));
}

void ReferenceModel::target_request(int id, const ObservedRequest& pkt) {
  const auto& head = pkt.cells.front();
  const int src = head.src;
  if (src < 0 || src >= cfg_.n_initiators) return;  // scoreboard's business
  if (!stbus::lanes_legal(head.opc, head.add, cfg_.bus_bytes)) {
    // Corrupted geometry: the target answers ERROR; predict that.
    Prediction p;
    p.opc = head.opc;
    p.add = head.add;
    p.tid = head.tid;
    p.status = RspOpcode::kError;
    if (stbus::is_load(head.opc) || stbus::is_atomic(head.opc)) {
      p.rdata.assign(static_cast<std::size_t>(stbus::size_bytes(head.opc)),
                     0);
    }
    pending_[static_cast<std::size_t>(src)].push_back(std::move(p));
    return;
  }
  const Request req = to_request(pkt, cfg_.bus_bytes);
  const tlm::Completion c = model_.apply_at(id, req);
  Prediction p;
  p.opc = req.opc;
  p.add = req.add;
  p.tid = req.tid;
  p.status = c.status;
  p.rdata = c.rdata;
  pending_[static_cast<std::size_t>(src)].push_back(std::move(p));
}

void ReferenceModel::initiator_response(int id, const ObservedResponse& pkt) {
  auto& q = pending_[static_cast<std::size_t>(id)];
  const auto& head = pkt.cells.front();

  // Locate the matching prediction.
  auto it = q.end();
  if (cfg_.type == stbus::ProtocolType::kType3) {
    it = std::find_if(q.begin(), q.end(), [&](const Prediction& p) {
      return p.tid == head.tid;
    });
  } else {
    // Type2: arrival order per initiator; responses can outrun predictions
    // only if the DUT invented them, so first match on shape.
    const int cells = static_cast<int>(pkt.cells.size());
    it = std::find_if(q.begin(), q.end(), [&](const Prediction& p) {
      return stbus::response_cells(p.opc, cfg_.bus_bytes, cfg_.type) == cells;
    });
  }
  if (it == q.end()) {
    fail(pkt.end_cycle(), "init" + std::to_string(id),
         "response with no prediction (tid " + std::to_string(head.tid) +
             ")");
    return;
  }

  const Prediction p = *it;
  q.erase(it);
  ++stats_.completions_checked;

  RspOpcode observed = RspOpcode::kOk;
  for (const auto& c : pkt.cells) {
    if (c.opc != RspOpcode::kOk) observed = RspOpcode::kError;
  }
  if (observed != p.status) {
    fail(pkt.end_cycle(), "init" + std::to_string(id),
         std::string("status mismatch vs reference model: observed ") +
             stbus::to_string(observed) + ", predicted " +
             stbus::to_string(p.status) + " for " + stbus::to_string(p.opc));
    return;
  }
  if ((stbus::is_load(p.opc) || stbus::is_atomic(p.opc)) &&
      observed == RspOpcode::kOk) {
    const auto data = stbus::extract_response_data(p.opc, p.add, pkt.cells,
                                                   cfg_.bus_bytes);
    if (data != p.rdata) {
      std::size_t byte = 0;
      while (byte < data.size() && data[byte] == p.rdata[byte]) ++byte;
      fail(pkt.end_cycle(), "init" + std::to_string(id),
           "load data differs from reference model at byte " +
               std::to_string(byte) + " (" + stbus::to_string(p.opc) +
               " @0x" + crve::Bits(32, p.add).to_hex_string() + ")");
      return;
    }
    ++stats_.loads_verified;
  }
}

void ReferenceModel::end_of_test() {
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    const auto n = pending_[static_cast<std::size_t>(i)].size();
    if (n != 0) {
      fail(0, "init" + std::to_string(i),
           std::to_string(n) + " predicted completions never observed");
    }
  }
}

}  // namespace crve::verif

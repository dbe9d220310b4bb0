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

// The data bytes an operation returns (loads and atomics), else none.
std::size_t read_bytes(stbus::Opcode opc) {
  return stbus::is_load(opc) || stbus::is_atomic(opc)
             ? static_cast<std::size_t>(stbus::size_bytes(opc))
             : 0;
}

}  // namespace

void ReferenceModel::predict_error(Prediction& p,
                                   const stbus::RequestCell& head) {
  p.opc = head.opc;
  p.add = head.add;
  p.tid = head.tid;
  p.status = RspOpcode::kError;
  std::fill_n(p.rdata.begin(), read_bytes(head.opc), std::uint8_t{0});
}

void ReferenceModel::initiator_request(int id, const ObservedRequest& pkt) {
  const auto& head = pkt.cells.front();
  if (cfg_.route(head.add) >= 0) return;  // reaches a target port later
  // Decode error: predict the node-generated ERROR response.
  predict_error(pending_[static_cast<std::size_t>(id)].push(), head);
}

void ReferenceModel::target_request(int id, const ObservedRequest& pkt) {
  const auto& head = pkt.cells.front();
  const int src = head.src;
  if (src < 0 || src >= cfg_.n_initiators) return;  // scoreboard's business
  Prediction& p = pending_[static_cast<std::size_t>(src)].push();
  if (!stbus::lanes_legal(head.opc, head.add, cfg_.bus_bytes)) {
    // Corrupted geometry: the target answers ERROR; predict that.
    predict_error(p, head);
    return;
  }
  // Reassemble the logical request, then apply it at this target.
  Request& req = replay_;
  req.opc = head.opc;
  req.add = head.add;
  req.src = head.src;
  req.tid = head.tid;
  req.wdata.clear();
  if (stbus::is_store(req.opc) || stbus::is_atomic(req.opc)) {
    req.wdata.resize(static_cast<std::size_t>(stbus::size_bytes(req.opc)));
    stbus::extract_request_data(req.opc, req.add, pkt.cells, cfg_.bus_bytes,
                                req.wdata);
  }
  p.opc = req.opc;
  p.add = req.add;
  p.tid = req.tid;
  p.status = model_.apply_at(
      id, req, std::span(p.rdata.data(), read_bytes(req.opc)));
}

void ReferenceModel::initiator_response(int id, const ObservedResponse& pkt) {
  auto& q = pending_[static_cast<std::size_t>(id)];
  const auto& head = pkt.cells.front();

  // Locate the matching prediction.
  std::size_t at = 0;
  if (cfg_.type == stbus::ProtocolType::kType3) {
    while (at < q.size() && q[at].tid != head.tid) ++at;
  } else {
    // Type2: arrival order per initiator; responses can outrun predictions
    // only if the DUT invented them, so first match on shape.
    const int cells = static_cast<int>(pkt.cells.size());
    while (at < q.size() && stbus::response_cells(q[at].opc, cfg_.bus_bytes,
                                                  cfg_.type) != cells) {
      ++at;
    }
  }
  if (at == q.size()) {
    fail(pkt.end_cycle(), "init" + std::to_string(id),
         "response with no prediction (tid " + std::to_string(head.tid) +
             ")");
    return;
  }

  const Prediction p = q[at];
  q.erase(at);
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
    const std::size_t n = read_bytes(p.opc);
    std::array<std::uint8_t, stbus::kMaxOpBytes> data;
    stbus::extract_response_data(p.opc, p.add, pkt.cells, cfg_.bus_bytes,
                                 std::span(data.data(), n));
    const auto [got, want] =
        std::mismatch(data.begin(), data.begin() + static_cast<long>(n),
                      p.rdata.begin());
    if (got != data.begin() + static_cast<long>(n)) {
      fail(pkt.end_cycle(), "init" + std::to_string(id),
           "load data differs from reference model at byte " +
               std::to_string(got - data.begin()) + " (" +
               stbus::to_string(p.opc) + " @0x" +
               crve::Bits(32, p.add).to_hex_string() + ")");
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

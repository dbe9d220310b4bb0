#include "verif/scoreboard.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "stbus/packet.h"

namespace crve::verif {

using stbus::RequestCell;
using stbus::ResponseCell;
using stbus::RspOpcode;

// Routes monitor callbacks to the scoreboard with port identity attached.
class ScoreboardTap : public MonitorListener {
 public:
  ScoreboardTap(Scoreboard& sb, int id, bool initiator)
      : sb_(sb), id_(id), initiator_(initiator) {}
  void on_request_packet(const ObservedRequest& pkt) override {
    if (initiator_) {
      sb_.initiator_request(id_, pkt);
    } else {
      sb_.target_request(id_, pkt);
    }
  }
  void on_response_packet(const ObservedResponse& pkt) override {
    if (initiator_) {
      sb_.initiator_response(id_, pkt);
    } else {
      sb_.target_response(id_, pkt);
    }
  }

 private:
  Scoreboard& sb_;
  int id_;
  bool initiator_;
};

namespace {

// First byte lane on which `a` and `b` differ among the lanes `be` enables,
// or -1 when they agree on all of them. Compares whole words.
int first_enabled_lane_diff(const Bits& a, const Bits& b, const Bits& be) {
  // be is at most 32 lanes wide: one word, eight lanes per data word.
  const std::uint64_t enabled = be.to_u64();
  const int words = (std::min(a.width(), b.width()) + 63) / 64;
  for (int w = 0; w < words && (enabled >> (8 * w)) != 0; ++w) {
    const auto lanes = static_cast<std::uint8_t>(enabled >> (8 * w));
    std::uint64_t mask = 0;
    for (int k = 0; k < 8; ++k) {
      if ((lanes >> k) & 1u) mask |= std::uint64_t{0xff} << (8 * k);
    }
    if (const std::uint64_t diff = (a.word(w) ^ b.word(w)) & mask; diff != 0) {
      return 8 * w + std::countr_zero(diff) / 8;
    }
  }
  return -1;
}

}  // namespace

Scoreboard::Scoreboard(const stbus::NodeConfig& cfg) : cfg_(cfg) {
  cfg_.validate_and_normalize();
  req_fifo_.assign(
      static_cast<std::size_t>(cfg_.n_initiators),
      std::vector<Ring<ObservedRequest>>(
          static_cast<std::size_t>(cfg_.n_targets)));
  rsp_fifo_.assign(
      static_cast<std::size_t>(cfg_.n_targets),
      std::vector<Ring<ObservedResponse>>(
          static_cast<std::size_t>(cfg_.n_initiators)));
  expected_errors_.resize(static_cast<std::size_t>(cfg_.n_initiators));
}

Scoreboard::~Scoreboard() = default;

void Scoreboard::attach_initiator(Monitor& mon, int id) {
  taps_.push_back(std::make_unique<ScoreboardTap>(*this, id, true));
  mon.subscribe(taps_.back().get());
}

void Scoreboard::attach_target(Monitor& mon, int id) {
  taps_.push_back(std::make_unique<ScoreboardTap>(*this, id, false));
  mon.subscribe(taps_.back().get());
}

void Scoreboard::fail(std::uint64_t cycle, const std::string& where,
                      const std::string& message) {
  ++count_;
  if (errors_.size() < kMaxStored) errors_.push_back({cycle, where, message});
}

bool Scoreboard::request_cells_equal(const RequestCell& a,
                                     const RequestCell& b, std::string* why) {
  if (a.opc != b.opc) {
    *why = "opcode";
    return false;
  }
  if (a.add != b.add) {
    *why = "address";
    return false;
  }
  if (!(a.be == b.be)) {
    *why = "byte enables";
    return false;
  }
  if (a.eop != b.eop || a.lck != b.lck) {
    *why = "eop/lck";
    return false;
  }
  if (a.tid != b.tid) {
    *why = "tid";
    return false;
  }
  // Data compared on enabled lanes only.
  if (const int lane = first_enabled_lane_diff(a.data, b.data, a.be);
      lane >= 0) {
    *why = "data (lane " + std::to_string(lane) + ")";
    return false;
  }
  return true;
}

bool Scoreboard::response_cells_equal(const ResponseCell& a,
                                      const ResponseCell& b,
                                      std::string* why) {
  if (a.opc != b.opc) {
    *why = "status";
    return false;
  }
  if (!(a.data == b.data)) {
    *why = "data";
    return false;
  }
  if (a.eop != b.eop) {
    *why = "eop";
    return false;
  }
  if (a.src != b.src || a.tid != b.tid) {
    *why = "src/tid";
    return false;
  }
  return true;
}

void Scoreboard::initiator_request(int id, const ObservedRequest& pkt) {
  const int target = cfg_.route(pkt.cells.front().add);
  if (target < 0) {
    // Decode error: the node itself must answer with ERROR cells.
    expected_errors_[static_cast<std::size_t>(id)].push_back(
        {pkt.cells.front().opc, pkt.cells.front().tid,
         stbus::response_cells(pkt.cells.front().opc, cfg_.bus_bytes,
                               cfg_.type)});
    return;
  }
  req_fifo_[static_cast<std::size_t>(id)][static_cast<std::size_t>(target)]
      .push_back(pkt);
}

void Scoreboard::target_request(int id, const ObservedRequest& pkt) {
  const int src = pkt.cells.front().src;
  if (src < 0 || src >= cfg_.n_initiators) {
    fail(pkt.end_cycle(), "targ" + std::to_string(id),
         "request with illegal src " + std::to_string(src));
    return;
  }
  auto& fifo =
      req_fifo_[static_cast<std::size_t>(src)][static_cast<std::size_t>(id)];
  if (fifo.empty()) {
    fail(pkt.end_cycle(), "targ" + std::to_string(id),
         "request from init" + std::to_string(src) +
             " was never issued at the initiator port");
    return;
  }
  // The front slot keeps its packet until the next push, which the checks
  // below cannot reach.
  const ObservedRequest& expect = fifo.front();
  fifo.pop_front();
  if (expect.cells.size() != pkt.cells.size()) {
    fail(pkt.end_cycle(), "targ" + std::to_string(id),
         "request packet length changed through the node");
    return;
  }
  for (std::size_t c = 0; c < pkt.cells.size(); ++c) {
    std::string why;
    if (!request_cells_equal(expect.cells[c], pkt.cells[c], &why)) {
      fail(pkt.cycles[c], "targ" + std::to_string(id),
           "request cell " + std::to_string(c) + " corrupted: " + why);
      return;
    }
  }
  ++stats_.requests_matched;
}

void Scoreboard::target_response(int id, const ObservedResponse& pkt) {
  const int dest = pkt.cells.front().src;
  if (dest < 0 || dest >= cfg_.n_initiators) {
    fail(pkt.end_cycle(), "targ" + std::to_string(id),
         "response with illegal src " + std::to_string(dest));
    return;
  }
  rsp_fifo_[static_cast<std::size_t>(id)][static_cast<std::size_t>(dest)]
      .push_back(pkt);
}

void Scoreboard::initiator_response(int id, const ObservedResponse& pkt) {
  // Try the per-target in-flight FIFOs first.
  for (int t = 0; t < cfg_.n_targets; ++t) {
    auto& fifo =
        rsp_fifo_[static_cast<std::size_t>(t)][static_cast<std::size_t>(id)];
    if (fifo.empty()) continue;
    const ObservedResponse& front = fifo.front();
    if (front.cells.size() != pkt.cells.size()) continue;
    bool all_equal = true;
    std::string why;
    for (std::size_t c = 0; c < pkt.cells.size(); ++c) {
      if (!response_cells_equal(front.cells[c], pkt.cells[c], &why)) {
        all_equal = false;
        break;
      }
    }
    if (all_equal) {
      fifo.pop_front();
      ++stats_.responses_matched;
      return;
    }
  }
  // Then node-generated error responses.
  auto& errs = expected_errors_[static_cast<std::size_t>(id)];
  if (!errs.empty()) {
    const ExpectedError& e = errs.front();
    bool ok = static_cast<int>(pkt.cells.size()) == e.cells &&
              pkt.cells.front().tid == e.tid;
    for (const auto& c : pkt.cells) {
      if (c.opc != RspOpcode::kError || !c.data.is_zero()) ok = false;
    }
    if (ok) {
      errs.pop_front();
      ++stats_.error_responses_matched;
      return;
    }
  }
  // No source produced this packet: a partially matching candidate gives a
  // better diagnostic than "unmatched".
  for (int t = 0; t < cfg_.n_targets; ++t) {
    auto& fifo =
        rsp_fifo_[static_cast<std::size_t>(t)][static_cast<std::size_t>(id)];
    if (fifo.empty()) continue;
    const ObservedResponse& front = fifo.front();
    if (front.cells.front().tid == pkt.cells.front().tid &&
        front.cells.size() == pkt.cells.size()) {
      std::string why;
      for (std::size_t c = 0; c < pkt.cells.size(); ++c) {
        if (!response_cells_equal(front.cells[c], pkt.cells[c], &why)) break;
      }
      fail(pkt.end_cycle(), "init" + std::to_string(id),
           "response data corrupted through the node (from targ" +
               std::to_string(t) + "): " + why);
      fifo.pop_front();
      return;
    }
  }
  fail(pkt.end_cycle(), "init" + std::to_string(id),
       "response packet matches no target output (tid " +
           std::to_string(pkt.cells.front().tid) + ")");
}

void Scoreboard::end_of_test() {
  for (int i = 0; i < cfg_.n_initiators; ++i) {
    for (int t = 0; t < cfg_.n_targets; ++t) {
      const auto n =
          req_fifo_[static_cast<std::size_t>(i)][static_cast<std::size_t>(t)]
              .size();
      if (n != 0) {
        fail(0, "init" + std::to_string(i),
             std::to_string(n) + " request packets never reached targ" +
                 std::to_string(t));
      }
      const auto m =
          rsp_fifo_[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
              .size();
      if (m != 0) {
        fail(0, "targ" + std::to_string(t),
             std::to_string(m) + " response packets never reached init" +
                 std::to_string(i));
      }
    }
    if (!expected_errors_[static_cast<std::size_t>(i)].empty()) {
      fail(0, "init" + std::to_string(i),
           "node error responses missing for decode-error requests");
    }
  }
}

}  // namespace crve::verif

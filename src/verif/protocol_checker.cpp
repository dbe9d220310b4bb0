#include "verif/protocol_checker.h"

#include "stbus/packet.h"

namespace crve::verif {

using stbus::Opcode;
using stbus::RequestCell;
using stbus::ResponseCell;
using stbus::RspOpcode;

ProtocolChecker::ProtocolChecker(sim::Context& ctx, std::string name,
                                 const stbus::PortPins& pins,
                                 stbus::ProtocolType type, Role role,
                                 int expected_src,
                                 const stbus::NodeConfig* map)
    : name_(std::move(name)),
      ctx_(ctx),
      pins_(pins),
      type_(type),
      role_(role),
      expected_src_(expected_src),
      map_(map) {}

sim::ClockedOpts ProtocolChecker::declarations() const {
  sim::ClockedOpts decl;
  decl.reads = pins_.all_signals();
  return decl;
}

void ProtocolChecker::report(std::uint64_t cycle, const std::string& rule,
                             const std::string& message) {
  ++count_;
  if (violations_.size() < kMaxStored) {
    violations_.push_back({cycle, name_, rule, message});
  }
}

std::size_t ProtocolChecker::find_outstanding(std::uint8_t src,
                                              std::uint8_t tid) const {
  std::size_t at = 0;
  while (at < outstanding_.size() &&
         (outstanding_[at].tid != tid || outstanding_[at].src != src)) {
    ++at;
  }
  return at;
}

namespace {

bool same_payload(const RequestCell& a, const RequestCell& b) {
  return a.opc == b.opc && a.add == b.add && a.data == b.data &&
         a.be == b.be && a.eop == b.eop && a.lck == b.lck && a.src == b.src &&
         a.tid == b.tid;
}

bool same_payload(const ResponseCell& a, const ResponseCell& b) {
  return a.opc == b.opc && a.data == b.data && a.eop == b.eop &&
         a.src == b.src && a.tid == b.tid;
}

bool legal(Opcode opc) {
  return static_cast<int>(opc) < stbus::kNumOpcodes;
}

}  // namespace

void ProtocolChecker::observe(std::uint64_t cycle, const stbus::PortCycle& now,
                              const stbus::PortCycle& prev) {
  // HOLD rules: a stalled channel must not change its payload or retract.
  if (prev.req && !prev.gnt) {
    if (!now.req) {
      report(cycle, "HOLD_REQ", "request retracted while ungranted");
    } else if (!same_payload(now.request, prev.request)) {
      report(cycle, "HOLD_REQ", "request payload changed while ungranted");
    }
  }
  if (prev.r_req && !prev.r_gnt) {
    if (!now.r_req) {
      report(cycle, "HOLD_RSP", "response retracted while ungranted");
    } else if (!same_payload(now.response, prev.response)) {
      report(cycle, "HOLD_RSP", "response payload changed while ungranted");
    }
  }

  // Starvation watchdog: a channel stalled for starve_limit_ consecutive
  // cycles is reported once per episode.
  auto watch = [this, cycle](bool stalled, int& counter, bool& reported,
                             const char* what) {
    if (!stalled) {
      counter = 0;
      reported = false;
      return;
    }
    ++counter;
    if (starve_limit_ > 0 && counter >= starve_limit_ && !reported) {
      reported = true;
      report(cycle, "STARVE",
             std::string(what) + " ungranted for " +
                 std::to_string(counter) + " cycles");
    }
  };
  watch(now.req && !now.gnt, req_stalled_, req_starved_reported_, "request");
  watch(now.r_req && !now.r_gnt, rsp_stalled_, rsp_starved_reported_,
        "response");

  if (now.request_fires()) check_request_fire(cycle, now.request);
  if (now.response_fires()) check_response_fire(cycle, now.response);
}

void ProtocolChecker::check_request_fire(std::uint64_t cycle,
                                         const RequestCell& cell) {
  const int bus = pins_.bus_bytes;
  const int beat = static_cast<int>(req_pkt_.size());
  const Opcode pkt_opc = req_pkt_.empty() ? cell.opc : req_pkt_.front().opc;

  // An illegal opcode has no size: report it, and skip the rules that
  // depend on one (ALIGN, BE, PKT_LEN) for the cell.
  if (!legal(cell.opc)) {
    report(cycle, "REQ_OPC",
           "illegal opc encoding " +
               std::to_string(static_cast<int>(cell.opc)));
  }
  const bool sized = legal(cell.opc) && legal(pkt_opc);

  if (beat == 0) {
    if (sized && !stbus::aligned(cell.opc, cell.add)) {
      report(cycle, "ALIGN",
             "address 0x" + crve::Bits(32, cell.add).to_hex_string() +
                 " unaligned for " + stbus::to_string(cell.opc));
    }
    if (chunk_target_ && map_ != nullptr) {
      const int t = map_->route(cell.add);
      if (t != *chunk_target_) {
        report(cycle, "CHUNK_TGT",
               "chunk continued to a different target (" +
                   std::to_string(t) + " vs " +
                   std::to_string(*chunk_target_) + ")");
      }
    }
  } else {
    const RequestCell& head = req_pkt_.front();
    if (cell.opc != head.opc) {
      report(cycle, "OPC_STABLE", "opcode changed within packet");
    }
    const std::uint32_t expect_add =
        stbus::cell_address(head.add, bus, beat);
    if (cell.add != expect_add) {
      report(cycle, "ADDR_SEQ", "beat address not incrementing by bus width");
    }
    if (cell.src != head.src) {
      report(cycle, "SRC_STABLE", "src changed within packet");
    }
  }

  if (role_ == Role::kInitiatorPort && expected_src_ >= 0 &&
      static_cast<int>(cell.src) != expected_src_) {
    report(cycle, "SRC_STABLE",
           "src " + std::to_string(cell.src) + " != port id " +
               std::to_string(expected_src_));
  }

  // Byte enables: multi-beat packets use full enables; sub-bus single-cell
  // packets use the aligned lane mask. A (opcode, address) pair whose lanes
  // cannot fit the bus word at all is itself a violation.
  if (sized) {
    const int size = stbus::size_bytes(cell.opc);
    const std::uint32_t be_add =
        req_pkt_.empty() ? cell.add : req_pkt_.front().add;
    if (!stbus::lanes_legal(cell.opc, be_add, bus)) {
      report(cycle, "BE", "operation lanes straddle the bus word");
    } else {
      const crve::Bits expect_be =
          size >= bus ? crve::Bits::all_ones(bus)
                      : stbus::byte_enables(cell.opc, be_add, bus, 0);
      if (!(cell.be == expect_be)) {
        report(cycle, "BE", "byte enables do not match opcode/address");
      }
    }
  }

  // An unsized packet has no expected length: it ends on its eop.
  const int expect_cells =
      sized ? stbus::request_cells(pkt_opc, bus, type_) : 0;
  const bool should_be_last = beat + 1 == expect_cells;
  if (sized && cell.eop != should_be_last) {
    report(cycle, "PKT_LEN",
           "eop on beat " + std::to_string(beat + 1) + " of " +
               std::to_string(expect_cells));
  }
  if (!cell.eop && !cell.lck) {
    report(cycle, "LCK_MID", "mid-packet cell without lck");
  }

  req_pkt_.push_back(cell);
  if (cell.eop || (sized && beat + 1 >= expect_cells)) {
    // Packet complete (treat a bad-eop packet as complete to resync).
    if (type_ == stbus::ProtocolType::kType3) {
      for (std::size_t k = 0; k < outstanding_.size(); ++k) {
        const Outstanding& o = outstanding_[k];
        if (o.tid == cell.tid && o.src == req_pkt_.front().src) {
          report(cycle, "TID_REUSE",
                 "tid " + std::to_string(cell.tid) + " already outstanding");
        }
      }
    }
    Outstanding& o = outstanding_.push();
    o.opc = req_pkt_.front().opc;
    o.src = req_pkt_.front().src;
    o.tid = req_pkt_.front().tid;
    o.rsp_cells = stbus::response_cells(o.opc, bus, type_);
    chunk_target_.reset();
    if (cell.lck && map_ != nullptr) {
      chunk_target_ = map_->route(req_pkt_.front().add);
    }
    req_pkt_.clear();
  }
}

void ProtocolChecker::check_response_fire(std::uint64_t cycle,
                                          const ResponseCell& cell) {

  if (cell.opc != RspOpcode::kOk && cell.opc != RspOpcode::kError) {
    report(cycle, "RSP_OPC", "illegal r_opc encoding");
  }

  const std::size_t none = outstanding_.size();
  if (rsp_pkt_.empty()) {
    // Start of a response packet: must match an outstanding request.
    std::size_t match = none;
    if (type_ == stbus::ProtocolType::kType3) {
      match = find_outstanding(cell.src, cell.tid);
    } else if (!outstanding_.empty()) {
      // Type2: strictly in order.
      match = 0;
      if (outstanding_.front().src != cell.src ||
          outstanding_.front().tid != cell.tid) {
        report(cycle, "RSP_MATCH", "response out of order (src/tid mismatch)");
      }
    }
    if (match == none) {
      report(cycle, "RSP_SPUR", "response with no outstanding request");
      rsp_pkt_.push_back(cell);
      if (cell.eop) rsp_pkt_.clear();
      return;
    }
    rsp_pkt_.push_back(cell);
    const int expect = outstanding_[match].rsp_cells;
    if (static_cast<int>(rsp_pkt_.size()) == expect) {
      if (!cell.eop) report(cycle, "PKT_LEN", "missing r_eop on last cell");
      outstanding_.erase(match);
      rsp_pkt_.clear();
    } else if (cell.eop) {
      report(cycle, "PKT_LEN",
             "r_eop after " + std::to_string(rsp_pkt_.size()) + " of " +
                 std::to_string(expect) + " cells");
      outstanding_.erase(match);
      rsp_pkt_.clear();
    }
  } else {
    const ResponseCell& head = rsp_pkt_.front();
    if (cell.src != head.src || cell.tid != head.tid) {
      report(cycle, "RSP_MATCH", "response packet interleaved (src/tid)");
    }
    // Find the packet's outstanding entry to know the expected length.
    const std::size_t match = find_outstanding(head.src, head.tid);
    rsp_pkt_.push_back(cell);
    const int expect = match != none ? outstanding_[match].rsp_cells
                                     : static_cast<int>(rsp_pkt_.size());
    if (static_cast<int>(rsp_pkt_.size()) == expect) {
      if (!cell.eop) report(cycle, "PKT_LEN", "missing r_eop on last cell");
      if (match != none) outstanding_.erase(match);
      rsp_pkt_.clear();
    } else if (cell.eop) {
      report(cycle, "PKT_LEN",
             "r_eop after " + std::to_string(rsp_pkt_.size()) + " of " +
                 std::to_string(expect) + " cells");
      if (match != none) outstanding_.erase(match);
      rsp_pkt_.clear();
    }
  }
}

void ProtocolChecker::end_of_test() {
  const std::uint64_t cycle = ctx_.cycle();
  if (!req_pkt_.empty()) {
    report(cycle, "EOT", "request packet left incomplete");
  }
  if (!rsp_pkt_.empty()) {
    report(cycle, "EOT", "response packet left incomplete");
  }
  if (!outstanding_.empty()) {
    report(cycle, "EOT",
           std::to_string(outstanding_.size()) +
               " transactions without response");
  }
  if (chunk_target_) {
    report(cycle, "EOT", "chunk left open (final packet had lck)");
  }
}

}  // namespace crve::verif

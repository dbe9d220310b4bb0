// STBus port pin bundle.
//
// One bundle carries the request channel (driven by the initiator side,
// granted by the target side) and the response channel (driven by the
// target side, granted by the initiator side). The same bundle type is
// instantiated at initiator ports (BFM <-> node) and target ports
// (node <-> BFM); the verification components attach to bundles without
// caring which view of the DUT sits behind them — this is the mechanism
// that makes the environment reusable across RTL and BCA (paper Fig. 2).
#pragma once

#include <string>
#include <vector>

#include "common/bits.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/packet.h"

namespace crve::stbus {

// One settled cycle of a bundle as the environment sees it: the four
// handshake pins, plus each channel's cell decoded once for every consumer
// (verif::PortAgent decides when). A cell is meaningful only on a cycle
// whose owner decoded it; it keeps its last decoded value otherwise.
struct PortCycle {
  bool req = false;
  bool gnt = false;
  bool r_req = false;
  bool r_gnt = false;
  RequestCell request;
  ResponseCell response;

  bool request_fires() const { return req && gnt; }
  bool response_fires() const { return r_req && r_gnt; }
  // Neither channel requested: no transfer, stall or hold is possible.
  bool idle() const { return !req && !r_req; }
};

struct PortPins {
  PortPins(sim::Context& ctx, const std::string& base, const NodeConfig& cfg)
      : PortPins(ctx, base, cfg.bus_bytes, cfg.address_bits, cfg.src_bits,
                 cfg.tid_bits) {}

  PortPins(sim::Context& ctx, const std::string& base, int bus_bytes,
           int address_bits = 32, int src_bits = 6, int tid_bits = 8)
      : bus_bytes(bus_bytes),
        req(ctx, base + ".req"),
        gnt(ctx, base + ".gnt"),
        opc(ctx, base + ".opc", kOpcodeBits),
        add(ctx, base + ".add", address_bits),
        data(ctx, base + ".data", bus_bytes * 8),
        be(ctx, base + ".be", bus_bytes),
        eop(ctx, base + ".eop"),
        lck(ctx, base + ".lck"),
        src(ctx, base + ".src", src_bits),
        tid(ctx, base + ".tid", tid_bits),
        r_req(ctx, base + ".r_req"),
        r_gnt(ctx, base + ".r_gnt"),
        r_opc(ctx, base + ".r_opc", kRspOpcodeBits),
        r_data(ctx, base + ".r_data", bus_bytes * 8),
        r_eop(ctx, base + ".r_eop"),
        r_src(ctx, base + ".r_src", src_bits),
        r_tid(ctx, base + ".r_tid", tid_bits) {}

  int bus_bytes;

  // Request channel.
  sim::SignalBool req;
  sim::SignalBool gnt;
  sim::SignalU64 opc;
  sim::SignalU64 add;
  sim::SignalBits data;
  sim::SignalBits be;
  sim::SignalBool eop;
  sim::SignalBool lck;
  sim::SignalU64 src;
  sim::SignalU64 tid;

  // Response channel.
  sim::SignalBool r_req;
  sim::SignalBool r_gnt;
  sim::SignalU64 r_opc;
  sim::SignalBits r_data;
  sim::SignalBool r_eop;
  sim::SignalU64 r_src;
  sim::SignalU64 r_tid;

  // --- helpers for drivers -----------------------------------------------
  void drive_request(const RequestCell& c) {
    req.write(true);
    opc.write(static_cast<std::uint64_t>(c.opc));
    add.write(c.add);
    data.write(c.data);
    be.write(c.be);
    eop.write(c.eop);
    lck.write(c.lck);
    src.write(c.src);
    tid.write(c.tid);
  }

  void idle_request() { req.write(false); }

  void drive_response(const ResponseCell& c) {
    r_req.write(true);
    r_opc.write(static_cast<std::uint64_t>(c.opc));
    r_data.write(c.data);
    r_eop.write(c.eop);
    r_src.write(c.src);
    r_tid.write(c.tid);
  }

  void idle_response() { r_req.write(false); }

  // --- helpers for samplers (settled values) ------------------------------
  bool request_fires() const { return req.read() && gnt.read(); }
  bool response_fires() const { return r_req.read() && r_gnt.read(); }

  RequestCell sample_request() const {
    RequestCell c;
    sample_request(c);
    return c;
  }

  ResponseCell sample_response() const {
    ResponseCell c;
    sample_response(c);
    return c;
  }

  // Decode into existing storage (the per-cycle path: no temporaries).
  void sample_request(RequestCell& c) const {
    c.opc = static_cast<Opcode>(opc.read());
    c.add = static_cast<std::uint32_t>(add.read());
    c.data = data.read();
    c.be = be.read();
    c.eop = eop.read();
    c.lck = lck.read();
    c.src = static_cast<std::uint8_t>(src.read());
    c.tid = static_cast<std::uint8_t>(tid.read());
  }

  void sample_response(ResponseCell& c) const {
    c.opc = static_cast<RspOpcode>(r_opc.read());
    c.data = r_data.read();
    c.eop = r_eop.read();
    c.src = static_cast<std::uint8_t>(r_src.read());
    c.tid = static_cast<std::uint8_t>(r_tid.read());
  }

  // --- helpers for design-lint declarations (ClockedOpts/CombOpts) --------
  // Pin accesses through the sampler/driver helpers above are data-dependent
  // (payload only when the channel fires), so single-evaluation recording
  // under-approximates; components declare the full bundle slices instead.
  std::vector<const sim::SignalBase*> request_signals() const {
    return {&req, &opc, &add, &data, &be, &eop, &lck, &src, &tid};
  }
  std::vector<const sim::SignalBase*> response_signals() const {
    return {&r_req, &r_opc, &r_data, &r_eop, &r_src, &r_tid};
  }
  std::vector<const sim::SignalBase*> all_signals() const {
    return {&req,   &gnt,    &opc,   &add,   &data, &be,    &eop,   &lck,
            &src,   &tid,    &r_req, &r_gnt, &r_opc, &r_data, &r_eop,
            &r_src, &r_tid};
  }
};

}  // namespace crve::stbus

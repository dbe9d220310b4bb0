#include "verif/agent.h"

namespace crve::verif {

namespace {

void append(std::vector<const sim::SignalBase*>& into,
            const std::vector<const sim::SignalBase*>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

PortAgent::PortAgent(sim::Context& ctx, const std::string& name,
                     const stbus::PortPins& pins, Parts parts)
    : ctx_(ctx), pins_(pins), parts_(parts) {
  // A cell is decoded for the parts that consume it: the checker on every
  // requested cycle, the monitor and the receiving BFM when it fires.
  if (parts_.checker != nullptr) {
    req_decode_ = rsp_decode_ = Decode::kOnRequest;
  } else {
    const bool watched = parts_.monitor != nullptr;
    if (watched || parts_.target != nullptr) req_decode_ = Decode::kOnFire;
    if (watched || parts_.initiator != nullptr) rsp_decode_ = Decode::kOnFire;
  }

  // The design graph dedupes, so the union is a plain concatenation.
  sim::ClockedOpts decl;
  auto add = [&decl](const sim::ClockedOpts& part) {
    append(decl.reads, part.reads);
    append(decl.writes, part.writes);
  };
  if (parts_.initiator != nullptr) add(parts_.initiator->declarations());
  if (parts_.target != nullptr) add(parts_.target->declarations());
  if (parts_.checker != nullptr) add(parts_.checker->declarations());
  if (parts_.monitor != nullptr) add(parts_.monitor->declarations());
  ctx.add_clocked("agent." + name, [this] { step(); }, std::move(decl));
}

void PortAgent::step() {
  const stbus::PortCycle& prev = views_[cur_];
  cur_ ^= 1;
  stbus::PortCycle& now = views_[cur_];
  now.req = pins_.req.read();
  now.gnt = pins_.gnt.read();
  now.r_req = pins_.r_req.read();
  now.r_gnt = pins_.r_gnt.read();
  if (now.req && (req_decode_ == Decode::kOnRequest ||
                  (req_decode_ == Decode::kOnFire && now.gnt))) {
    pins_.sample_request(now.request);
  }
  if (now.r_req && (rsp_decode_ == Decode::kOnRequest ||
                    (rsp_decode_ == Decode::kOnFire && now.r_gnt))) {
    pins_.sample_response(now.response);
  }

  // ctx_.cycle() was already advanced for the new cycle; the pins still
  // carry the previous (settled) cycle's values.
  const std::uint64_t cycle = ctx_.cycle() - 1;
  if (parts_.initiator != nullptr) parts_.initiator->step(now);
  if (parts_.target != nullptr) parts_.target->step(now);
  // A quiet port-cycle (both channels idle now and on the previous cycle)
  // has nothing to hold, fire or stall: only the BFMs, whose draws and
  // writes are the stimulus, have work on it.
  if (now.idle() && prev.idle()) return;
  if (parts_.checker != nullptr) parts_.checker->observe(cycle, now, prev);
  if (parts_.monitor != nullptr &&
      (now.request_fires() || now.response_fires())) {
    parts_.monitor->observe(cycle, now);
  }
}

}  // namespace crve::verif

// STBus register decoder: a simple register-file target IP.
//
// Decodes word accesses into an array of 32-bit registers, the fourth of
// the paper's basic interconnect components. It is also handy as a
// deterministic reference slave in unit tests. Only 4-byte operations are
// legal; anything else (or an out-of-range word index) gets an ERROR
// response. Fixed 1-cycle acceptance, response offered the cycle after the
// request packet completes.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/pins.h"

namespace crve::rtl {

class RegisterDecoder {
 public:
  RegisterDecoder(sim::Context& ctx, std::string name, stbus::PortPins& port,
                  stbus::ProtocolType type, std::uint32_t base_address,
                  int n_regs);

  std::uint32_t reg(int index) const;
  void set_reg(int index, std::uint32_t value);

 private:
  void comb();
  void edge();

  std::string name_;
  stbus::PortPins& port_;
  stbus::ProtocolType type_;
  std::uint32_t base_;
  std::vector<std::uint32_t> regs_;

  std::vector<stbus::RequestCell> req_cells_;
  std::deque<stbus::ResponseCell> rsp_queue_;
  // Bumped on every rsp_queue_ mutation; re-dirties the combinational
  // process under the compiled schedule.
  sim::StateTag tag_;
};

}  // namespace crve::rtl

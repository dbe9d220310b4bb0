// Reference-model checker: replays observed traffic through the untimed
// TLM view and compares end-to-end data semantics.
//
// Where the scoreboard checks *transport* (cells leave the node as they
// entered it), the reference model checks *meaning*: every load must return
// exactly what the TLM functional model predicts given the store stream
// that actually reached each target. It therefore also cross-checks the
// target BFMs themselves — the three views (TLM, BCA, RTL) are held to one
// specification, which is the paper's future-work flow realised.
//
// Replay points:
//   * target-port request packets (their arrival order IS the memory apply
//     order) feed tlm::Node::apply_at and produce predicted completions;
//   * initiator-port request packets that decode to no target produce
//     predicted ERROR completions;
//   * initiator-port response packets are matched against predictions —
//     Type3 by (initiator, tid), Type2 by arrival order filtered on
//     (opcode, address) — and their data compared byte for byte.
//
// Constraint: target BFMs must not inject random errors (error_permille
// == 0); the reference model cannot predict those.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ring.h"
#include "stbus/config.h"
#include "stbus/packet.h"
#include "tlm/model.h"
#include "verif/monitor.h"

namespace crve::verif {

struct ReferenceError {
  std::uint64_t cycle = 0;
  std::string where;
  std::string message;
};

class ReferenceModel {
 public:
  // `mem_patterns`: one fill-pattern seed per target (matching the target
  // BFMs' TargetProfile::mem_pattern).
  ReferenceModel(const stbus::NodeConfig& cfg,
                 std::vector<std::uint64_t> mem_patterns);
  ~ReferenceModel();

  ReferenceModel(const ReferenceModel&) = delete;
  ReferenceModel& operator=(const ReferenceModel&) = delete;

  void attach_initiator(Monitor& mon, int id);
  void attach_target(Monitor& mon, int id);

  void end_of_test();

  const std::vector<ReferenceError>& errors() const { return errors_; }
  std::uint64_t error_count() const { return count_; }
  bool clean() const { return count_ == 0; }

  struct Stats {
    std::uint64_t completions_checked = 0;
    std::uint64_t loads_verified = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class ReferenceTap;

  // rdata holds size_bytes(opc) bytes for loads and atomics.
  struct Prediction {
    stbus::Opcode opc{};
    std::uint32_t add = 0;
    std::uint8_t tid = 0;
    stbus::RspOpcode status = stbus::RspOpcode::kOk;
    std::array<std::uint8_t, stbus::kMaxOpBytes> rdata{};
  };

  // An ERROR completion for `head`'s packet: read data all zero.
  static void predict_error(Prediction& p, const stbus::RequestCell& head);

  void initiator_request(int id, const ObservedRequest& pkt);
  void initiator_response(int id, const ObservedResponse& pkt);
  void target_request(int id, const ObservedRequest& pkt);

  void fail(std::uint64_t cycle, const std::string& where,
            const std::string& message);

  stbus::NodeConfig cfg_;
  tlm::Node model_;
  // Outstanding predictions per initiator, in target-arrival order.
  std::vector<Ring<Prediction>> pending_;
  // The request a target-port packet carries, rebuilt in place per packet.
  stbus::Request replay_;
  std::vector<std::unique_ptr<MonitorListener>> taps_;
  std::vector<ReferenceError> errors_;
  std::uint64_t count_ = 0;
  Stats stats_;
  static constexpr std::size_t kMaxStored = 100;
};

}  // namespace crve::verif

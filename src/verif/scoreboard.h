// Data-integrity scoreboard.
//
// Checks that every request packet granted at an initiator port reappears
// bit-identically at the decoded target port, and that every response
// packet produced at a target port (or synthesized by the node for decode
// errors) reappears at the owning initiator port — "the DUT outputs' data
// correspond to the inputs' one, with respect to the specifications".
//
// The scoreboard subscribes to monitors only; it never touches the DUT, so
// the same instance serves the RTL and BCA views.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ring.h"
#include "stbus/config.h"
#include "verif/monitor.h"

namespace crve::verif {

struct ScoreboardError {
  std::uint64_t cycle = 0;
  std::string where;
  std::string message;
};

class Scoreboard {
 public:
  explicit Scoreboard(const stbus::NodeConfig& cfg);
  ~Scoreboard();

  Scoreboard(const Scoreboard&) = delete;
  Scoreboard& operator=(const Scoreboard&) = delete;

  // Attach the monitor watching initiator/target port `id`.
  void attach_initiator(Monitor& mon, int id);
  void attach_target(Monitor& mon, int id);

  // Final check: every forwarded packet must have been delivered.
  void end_of_test();

  const std::vector<ScoreboardError>& errors() const { return errors_; }
  std::uint64_t error_count() const { return count_; }
  bool clean() const { return count_ == 0; }

  struct Stats {
    std::uint64_t requests_matched = 0;
    std::uint64_t responses_matched = 0;
    std::uint64_t error_responses_matched = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class ScoreboardTap;

  struct ExpectedError {
    stbus::Opcode opc{};
    std::uint8_t tid = 0;
    int cells = 0;
  };

  void initiator_request(int id, const ObservedRequest& pkt);
  void initiator_response(int id, const ObservedResponse& pkt);
  void target_request(int id, const ObservedRequest& pkt);
  void target_response(int id, const ObservedResponse& pkt);

  void fail(std::uint64_t cycle, const std::string& where,
            const std::string& message);

  static bool request_cells_equal(const stbus::RequestCell& a,
                                  const stbus::RequestCell& b,
                                  std::string* why);
  static bool response_cells_equal(const stbus::ResponseCell& a,
                                   const stbus::ResponseCell& b,
                                   std::string* why);

  stbus::NodeConfig cfg_;
  // Rings reuse their slots' cell vectors (copying a packet into a slot
  // allocates only past the longest packet the slot has held), so a warm
  // scoreboard stores packets without allocating.
  // req_fifo_[initiator][target]: packets in flight toward a target.
  std::vector<std::vector<Ring<ObservedRequest>>> req_fifo_;
  // rsp_fifo_[target][initiator]: packets in flight back to an initiator.
  std::vector<std::vector<Ring<ObservedResponse>>> rsp_fifo_;
  // Node-generated error responses expected per initiator.
  std::vector<Ring<ExpectedError>> expected_errors_;

  std::vector<std::unique_ptr<MonitorListener>> taps_;
  std::vector<ScoreboardError> errors_;
  std::uint64_t count_ = 0;
  Stats stats_;
  static constexpr std::size_t kMaxStored = 100;
};

}  // namespace crve::verif

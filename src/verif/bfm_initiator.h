// Initiator BFM (harness): constrained-random STBus traffic generation.
//
// One BFM drives one initiator port. Stimulus is drawn from a deterministic
// per-BFM random stream (forked from the test seed), so running the same
// test with the same seed against the RTL and BCA views produces identical
// cycle-level stimulus — the property the paper's regression flow and the
// STBA alignment comparison rely on.
//
// A directed sequence can be supplied instead of the random profile; that
// mode also reproduces the paper's "old flow" write-then-read harness.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "sim/context.h"
#include "stbus/config.h"
#include "stbus/packet.h"
#include "stbus/pins.h"

namespace crve::verif {

struct InitiatorProfile {
  // Relative weight per opcode (index = stbus::Opcode); zero disables.
  std::vector<std::uint32_t> opcode_weights =
      std::vector<std::uint32_t>(stbus::kNumOpcodes, 1);
  // Cap on operation size (bytes); opcodes above it are masked out.
  int max_size_bytes = 64;
  // Address windows to draw from, normally one per reachable target.
  // Each window must lie entirely inside one address-map range.
  std::vector<stbus::AddressRange> windows;
  // Per-mille chance of aiming at `error_window` (unmapped) instead.
  std::uint32_t decode_error_permille = 0;
  std::optional<stbus::AddressRange> error_window;
  // Per-mille chance a packet opens/continues a chunk (lck on eop).
  std::uint32_t chunk_permille = 0;
  int max_chunk_packets = 4;
  // Per-mille chance of inserting an idle cycle between packets.
  std::uint32_t idle_permille = 250;
  // Split-transaction depth (Type3; Type2 pipelines to the same target).
  int max_outstanding = 4;
  // Per-mille chance of stalling the response channel (r_gnt low) a cycle.
  std::uint32_t rsp_stall_permille = 0;
  // Type2 pins all in-flight traffic to one window (ordering); with this
  // per-mille chance per generation opportunity the BFM instead drains its
  // pipeline so the next packet gets a fresh window pick. Keeps long runs
  // from sticking to the first window chosen.
  std::uint32_t pipeline_drain_permille = 80;
  // Number of transactions to issue.
  int n_transactions = 100;
  // Record completed transactions (tests and latency benches).
  bool keep_history = false;
};

struct CompletedTx {
  stbus::Request request;
  std::vector<stbus::ResponseCell> response;
  stbus::RspOpcode status = stbus::RspOpcode::kOk;
  std::vector<std::uint8_t> rdata;  // loads/atomics
  std::uint64_t gen_cycle = 0;      // request generated (drive attempt)
  std::uint64_t issue_cycle = 0;    // first request cell granted
  std::uint64_t done_cycle = 0;     // response eop granted
};

class InitiatorBfm {
 public:
  // Random-profile constructor.
  InitiatorBfm(sim::Context& ctx, std::string name, stbus::PortPins& pins,
               stbus::ProtocolType type, int src_id,
               const stbus::NodeConfig& map, InitiatorProfile profile,
               Rng rng);
  // Directed-sequence constructor (profile still supplies pacing knobs).
  InitiatorBfm(sim::Context& ctx, std::string name, stbus::PortPins& pins,
               stbus::ProtocolType type, int src_id,
               const stbus::NodeConfig& map, InitiatorProfile profile,
               Rng rng, std::vector<stbus::Request> directed);

  // Observability tap: called once per generated request, at the cycle the
  // BFM first attempts to drive it (before arbitration). The monitor only
  // sees pins after the grant, so transaction-lifecycle tracing needs this
  // issue event from the BFM itself. Empty by default — zero cost unset.
  void set_issue_hook(
      std::function<void(const stbus::Request&, std::uint64_t gen_cycle)> h) {
    issue_hook_ = std::move(h);
  }

  // One cycle, called by the port's PortAgent with the settled view: absorbs
  // the response cell and the request grant of the cycle that ended, then
  // schedules this cycle's drive.
  void step(const stbus::PortCycle& now);

  // Design-lint declarations: the response payload is read only while a
  // response fires and the request payload driven only while a packet is
  // outstanding, so a single recorded evaluation sees neither slice.
  sim::ClockedOpts declarations() const;

  bool done() const;
  int issued() const { return issued_; }
  int completed() const { return completed_; }
  const std::vector<CompletedTx>& history() const { return history_; }

  // Mean first-grant -> response-complete latency (transport latency).
  double mean_latency() const;
  // Mean generation -> response-complete latency (includes arbitration
  // wait); needs keep_history.
  double mean_total_latency() const;

 private:
  void generate_next();
  std::uint8_t alloc_tid() const;

  std::string name_;
  sim::Context& ctx_;
  stbus::PortPins& pins_;
  stbus::ProtocolType type_;
  int src_;
  stbus::NodeConfig map_;
  InitiatorProfile prof_;
  Rng rng_;

  std::vector<stbus::Request> directed_;
  std::size_t directed_idx_ = 0;

  // Current request (valid while cells_ is non-empty) and the packet being
  // driven; both are rebuilt in place for every packet.
  stbus::Request req_;
  std::vector<stbus::RequestCell> cells_;
  std::size_t cell_idx_ = 0;
  // Drive on change: the BFM is the only writer of its request pins and a
  // signal holds its last write, so the pins are written only when the
  // driven cell changes (`redrive_`) or the channel goes idle.
  bool redrive_ = false;
  bool driving_ = false;

  // Chunk bookkeeping: remaining packets and the window they must hit.
  int chunk_left_ = 0;
  int chunk_window_ = -1;
  // Sticky pipeline-drain state (see pipeline_drain_permille).
  bool draining_ = false;

  // Outstanding transactions. Type3 keys them by tid; Type2 shares tid 0
  // and relies on strict response ordering, so a FIFO tracks them instead.
  // Slots are reused; `request` and `rsp` are filled only with keep_history.
  struct Flight {
    bool live = false;
    std::uint64_t gen_cycle = 0;
    std::uint64_t issue_cycle = 0;
    stbus::Request request;
    std::vector<stbus::ResponseCell> rsp;
  };
  std::vector<Flight> flights_;  // Type3, indexed by tid
  Ring<Flight> fifo_;            // Type2, oldest first
  int outstanding_ = 0;
  // Type2: window of the in-flight stream (-1 = error window,
  // -2 = unconstrained).
  int pipeline_window_ = -2;

  std::function<void(const stbus::Request&, std::uint64_t)> issue_hook_;

  int issued_ = 0;
  int completed_ = 0;
  std::vector<CompletedTx> history_;
  std::uint64_t latency_sum_ = 0;
};

}  // namespace crve::verif

// In-process trace recorder: the simulator's one wave producer.
//
// Implements sim::Tracer and fills a vcd::Trace's change log (parser.h)
// with each changed signal's native value words (SignalBase::value_words),
// never text. The trace holds the dotted names, widths, vcd::id_code ids,
// the log (a full snapshot at the first sample, then only values that
// differ from the signal's last recorded one: the kernel's changed-set may
// hold within-cycle reverts) and max_time (the last cycle that recorded a
// change). Each cycle's changes enter the log in signal-index order, read
// off a bitmap of the signals that changed, so the recording does not
// depend on the order the kernel committed them in: two views that drive
// the same values record equal logs. take() hands the log over without a
// copy.
//
// Everything downstream reads this trace: the regression runner aligns
// from it (DESIGN.md §9), and a Testbench asked for a VCD file or stream
// writes it as text once the run ends (vcd::write_wave, excerpt.h). The
// text equals what a per-cycle full-scan VCD writer emits for the same run
// and parses back to an equal Trace; tests/test_trace_path.cpp holds both
// over the shipped configs and the CATG suite.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/context.h"
#include "vcd/parser.h"

namespace crve::vcd {

class Recorder : public sim::Tracer {
 public:
  Recorder() = default;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void sample(std::uint64_t cycle,
              const std::vector<sim::SignalBase*>& signals,
              const std::vector<int>& changed) override;

  // The recording so far.
  const Trace& trace() const { return trace_; }

  // Moves the recording out as a Trace; the recorder is empty afterwards
  // and must not be sampled again. Publishes the vcd.recordings /
  // vcd.recorded_changes counters: a recording counts once it is handed
  // over, so a recorder that only feeds a wave file publishes nothing.
  Trace take();

 private:
  // Log capacity reserved when recording starts (1 MiB). Reserved pages the
  // log never writes cost no resident memory, while growing a log copies it
  // and briefly holds both copies: with doubling growth, a C2 sign-off
  // campaign (views of up to 370 KB of log) peaked about 2 MB higher.
  static constexpr std::size_t kReservedLogWords = std::size_t{1} << 17;

  // Declares every signal and sizes the per-signal state.
  void declare(const std::vector<sim::SignalBase*>& signals);
  // Marks signal `i` for this cycle when its value differs from the last
  // recorded one (always, for the `snapshot`), which it then becomes.
  void note(std::size_t i, bool snapshot);
  // Appends the marked signals' values at `cycle` in index order and
  // clears the marks; true when it appended any.
  bool flush(std::uint64_t cycle);

  Trace trace_;
  // Each signal's value_words(), taken once: the kernel adds no signal
  // after its first sample, so the storage they point at stays put.
  std::vector<const std::uint64_t*> value_;
  // Signal i's last recorded value is last_[offset_[i], offset_[i + 1]).
  std::vector<std::size_t> offset_;
  std::vector<std::uint64_t> last_;
  std::vector<std::uint64_t> marked_;  // this cycle's bitmap of changes
  bool declared_ = false;
  std::uint64_t recorded_changes_ = 0;
};

}  // namespace crve::vcd

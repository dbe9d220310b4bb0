// In-process trace recorder: the simulator's one wave producer.
//
// Implements sim::Tracer and keeps, per signal, the change times in a
// vector and the changed values packed back to back at the signal's width
// in one string — the layout vcd::Trace stores — so recording appends in
// place with no heap allocation per change (only amortized growth), and
// take() hands the storage over without a copy. The trace holds the
// dotted names, widths, vcd::id_code ids, change lists (a full snapshot at
// the first sample, then only values that differ from the previous
// recorded one) and max_time (the last cycle that recorded a change).
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
  // Records signal `index` at `cycle` if its value differs from the last
  // recorded one (or it has none yet); true when it recorded.
  bool record(std::uint64_t cycle, int index, const sim::SignalBase& sig);

  Trace trace_;
  bool declared_ = false;
  std::uint64_t recorded_changes_ = 0;
};

}  // namespace crve::vcd

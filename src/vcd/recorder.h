// In-process trace recorder: the simulator-side producer of vcd::Trace.
//
// Implements sim::Tracer and keeps, per signal, the change times in a
// vector and the changed values packed back to back at the signal's width
// in one string — the layout vcd::Trace stores — so recording appends in
// place with no heap allocation per change (only amortized growth), and
// take() hands the storage over without a copy. The result equals
// Trace::parse of what a vcd::Writer attached to the same run emits: same
// dotted names, widths, Writer::id_code ids, change lists (a full snapshot
// at the first sample, then only values that differ from the previous
// recorded one) and max_time (the last cycle that recorded a change).
// tests/test_trace_path.cpp holds that equivalence over the shipped
// configs and the CATG suite.
//
// This is what the regression runner aligns from (DESIGN.md §9): STBA reads
// the simulator's changes directly instead of a VCD dump written as text
// and parsed back.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/context.h"
#include "vcd/parser.h"

namespace crve::vcd {

class Recorder : public sim::Tracer {
 public:
  Recorder() = default;
  ~Recorder() override;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void sample(std::uint64_t cycle,
              const std::vector<sim::SignalBase*>& signals,
              const std::vector<int>& changed) override;

  // Moves the recording out as a Trace; the recorder is empty afterwards
  // and must not be sampled again.
  Trace take();

 private:
  // Records signal `index` at `cycle` if its value differs from the last
  // recorded one (or it has none yet); true when it recorded.
  bool record(std::uint64_t cycle, int index, const sim::SignalBase& sig);
  void publish_metrics();

  Trace trace_;
  bool declared_ = false;
  bool metrics_published_ = false;
  std::uint64_t recorded_changes_ = 0;
};

}  // namespace crve::vcd

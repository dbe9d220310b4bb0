#include "vcd/recorder.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace crve::vcd {

bool Recorder::record(std::uint64_t cycle, int index,
                      const sim::SignalBase& sig) {
  Trace::Track& tr = trace_.tracks_[static_cast<std::size_t>(index)];
  const std::size_t w = trace_.width_of(index);
  const std::size_t n = tr.values.size();
  // Format straight into the packed store; undo when it repeats the
  // previous value (the kernel's changed-set may hold within-cycle
  // reverts).
  sig.append_vcd(tr.values);
  if (n >= w && std::memcmp(tr.values.data() + n - w, tr.values.data() + n,
                            w) == 0) {
    tr.values.resize(n);
    return false;
  }
  tr.times.push_back(cycle);
  ++recorded_changes_;
  return true;
}

void Recorder::sample(std::uint64_t cycle,
                      const std::vector<sim::SignalBase*>& signals,
                      const std::vector<int>& changed) {
  bool any = false;
  if (!declared_) {
    declared_ = true;
    trace_.vars_.reserve(signals.size());
    for (std::size_t i = 0; i < signals.size(); ++i) {
      trace_.vars_.push_back({signals[i]->name(), signals[i]->width(),
                              id_code(static_cast<int>(i))});
    }
    trace_.finish_vars();
    // Initial snapshot: every signal, regardless of the changed-set (the
    // recorder may be attached after the kernel's first sample).
    for (std::size_t i = 0; i < signals.size(); ++i) {
      any |= record(cycle, static_cast<int>(i), *signals[i]);
    }
  } else {
    for (const int i : changed) {
      any |= record(cycle, i, *signals[static_cast<std::size_t>(i)]);
    }
  }
  if (any) trace_.max_time_ = cycle;
}

Trace Recorder::take() {
  if (declared_ && obs::metrics_enabled()) {
    obs::counter("vcd.recordings").inc();
    obs::counter("vcd.recorded_changes").add(recorded_changes_);
  }
  return std::move(trace_);
}

}  // namespace crve::vcd

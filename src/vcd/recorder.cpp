#include "vcd/recorder.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/metrics.h"

namespace crve::vcd {

void Recorder::declare(const std::vector<sim::SignalBase*>& signals) {
  declared_ = true;
  trace_.vars_.reserve(signals.size());
  value_.reserve(signals.size());
  offset_.reserve(signals.size() + 1);
  std::size_t words = 0;
  for (std::size_t i = 0; i < signals.size(); ++i) {
    trace_.vars_.push_back({signals[i]->name(), signals[i]->width(),
                            id_code(static_cast<int>(i))});
    value_.push_back(signals[i]->value_words());
    offset_.push_back(words);
    words += words_for(signals[i]->width());
  }
  offset_.push_back(words);
  trace_.finish_vars();
  last_.assign(words, 0);
  trace_.log_.reserve(kReservedLogWords);
  marked_.assign((signals.size() + 63) / 64, 0);
}

void Recorder::note(std::size_t i, bool snapshot) {
  const std::uint64_t* now = value_[i];
  std::uint64_t* last = last_.data() + offset_[i];
  const std::size_t n = offset_[i + 1] - offset_[i];
  if (!snapshot && std::equal(now, now + n, last)) return;
  std::copy(now, now + n, last);
  marked_[i / 64] |= std::uint64_t{1} << (i % 64);
}

bool Recorder::flush(std::uint64_t cycle) {
  const std::uint64_t before = recorded_changes_;
  for (std::size_t w = 0; w < marked_.size(); ++w) {
    for (std::uint64_t bits = marked_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      std::copy(last_.data() + offset_[i], last_.data() + offset_[i + 1],
                trace_.add_entry(cycle, static_cast<int>(i)));
      ++recorded_changes_;
    }
    marked_[w] = 0;
  }
  return recorded_changes_ != before;
}

void Recorder::sample(std::uint64_t cycle,
                      const std::vector<sim::SignalBase*>& signals,
                      const std::vector<int>& changed) {
  if (!declared_) {
    declare(signals);
    // Initial snapshot: every signal, regardless of the changed-set (the
    // recorder may be attached after the kernel's first sample).
    for (std::size_t i = 0; i < signals.size(); ++i) note(i, /*snapshot=*/true);
  } else {
    for (const int i : changed) {
      note(static_cast<std::size_t>(i), /*snapshot=*/false);
    }
  }
  if (flush(cycle)) trace_.max_time_ = cycle;
}

Trace Recorder::take() {
  if (declared_ && obs::metrics_enabled()) {
    obs::counter("vcd.recordings").inc();
    obs::counter("vcd.recorded_changes").add(recorded_changes_);
  }
  return std::move(trace_);
}

}  // namespace crve::vcd

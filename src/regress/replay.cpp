#include "regress/replay.h"

#include <algorithm>
#include <string>

#include "stba/analyzer.h"

namespace crve::regress {

namespace {

using verif::Dut;
using Entry = vcd::Trace::Entry;

// Every initiator then target port's fields in Analyzer::port_fields()
// order, which is PortPins::all_signals() order, as signal indices. Under
// the recording's variable table a variable's index is its signal's.
std::vector<std::vector<int>> alignment_fields(const Dut& dut) {
  std::vector<std::vector<int>> fields;
  const auto add = [&fields](const stbus::PortPins& p) {
    std::vector<int>& f = fields.emplace_back();
    for (const sim::SignalBase* s : p.all_signals()) f.push_back(s->index());
  };
  for (const auto& p : dut.ipins) add(*p);
  for (const auto& p : dut.tpins) add(*p);
  return fields;
}

// The variable table a Recorder declares for `signals`.
bool same_table(const vcd::Trace& t,
                const std::vector<sim::SignalBase*>& signals) {
  const auto& vars = t.vars();
  if (vars.size() != signals.size()) return false;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (vars[i].name != signals[i]->name() ||
        vars[i].width != signals[i]->width() ||
        vars[i].id != vcd::id_code(static_cast<int>(i))) {
      return false;
    }
  }
  return true;
}

// The BCA DUT, its stand-in processes and the tracer that checks each
// settled cycle against the recording. The drive processes and the check
// read the log with positions of their own.
class Replayer final : public sim::Tracer {
 public:
  Replayer(const stbus::NodeConfig& cfg, const verif::TestSpec& spec,
           sim::KernelKind kernel, const bca::Faults& faults,
           const vcd::Trace& rtl)
      : rtl_(rtl),
        dut_(ctx_, cfg, verif::ModelKind::kBca, faults),
        fields_(alignment_fields(dut_)),
        cells_(ctx_.signals().size(), fields_),
        drive_(rtl.begin()),
        check_(rtl.begin()),
        end_(rtl.end()) {
    ctx_.set_kernel(kernel);
    const auto& signals = ctx_.signals();
    if (!same_table(rtl, signals)) {
      diverged_ = true;
      return;
    }
    driven_.assign(signals.size(), 0);
    // One stand-in per environment process of the closed loop, in bundle
    // order, so the drive position only moves forward within a cycle.
    for (std::size_t i = 0; i < dut_.ipins.size(); ++i) {
      stand_in("agent.init" + std::to_string(i), *dut_.ipins[i],
               /*initiator_side=*/true);
    }
    for (std::size_t t = 0; t < dut_.tpins.size(); ++t) {
      stand_in("agent.targ" + std::to_string(t), *dut_.tpins[t],
               /*initiator_side=*/false);
    }
    if (dut_.prog_pins) {
      ctx_.add_clocked("replay.t1chk.prog", [] {});
      if (spec.prog) {
        stand_in("prog.prog", *dut_.prog_pins, /*initiator_side=*/true);
      }
    }
    // Construction-time writes: the recording's first cycle.
    drive(0, static_cast<int>(signals.size()));

    value_.reserve(signals.size());
    offset_.reserve(signals.size() + 1);
    std::size_t words = 0;
    for (const sim::SignalBase* s : signals) {
      value_.push_back(s->value_words());
      offset_.push_back(words);
      words += vcd::words_for(s->width());
    }
    offset_.push_back(words);
    last_.assign(words, 0);
    stamp_.assign(signals.size(), kNever);
    ctx_.attach_tracer(this);
  }

  // The stand-ins and the tracer hold `this`.
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  BcaReplay run(std::uint64_t cycles) {
    if (!diverged_) {
      ctx_.initialize();
      while (!diverged_ && ctx_.cycle() < cycles) ctx_.step();
    }
    if (!diverged_ && rtl_.max_time() != last_change_) {
      // The recording changes past the replay's last cycle (or ends later
      // than its last change, which a Recorder's never does).
      diverge(check_ != end_ ? (*check_).time : rtl_.max_time());
    }
    BcaReplay out;
    out.evaluations = ctx_.evaluations();
    out.proved = !diverged_;
    out.divergence = divergence_;
    if (out.proved) {
      out.port_fields = fields_;
      out.cells = cells_.cells(rtl_.max_time());
      ctx_.publish_metrics();
    }
    return out;
  }

  void sample(std::uint64_t cycle, const std::vector<sim::SignalBase*>& signals,
              const std::vector<int>& changed) override {
    if (diverged_) return;
    // The recording's changes at this cycle: each must be this cycle's
    // value, once.
    std::size_t logged = 0;
    for (; check_ != end_; ++check_) {
      const Entry e = *check_;
      if (e.time != cycle) break;
      const auto v = static_cast<std::size_t>(e.var);
      const std::size_t n = offset_[v + 1] - offset_[v];
      const std::uint64_t* w = e.value.words();
      if (stamp_[v] == cycle || !std::equal(w, w + n, value_[v])) {
        return diverge(cycle);
      }
      stamp_[v] = cycle;
      std::copy(w, w + n, last_.data() + offset_[v]);
      cells_.add(e);
      ++logged;
    }
    if (logged != 0) last_change_ = cycle;
    if (first_) {
      // A recording starts with every variable.
      first_ = false;
      if (logged != signals.size()) diverge(cycle);
      return;
    }
    // Any other signal the kernel saw change must hold its recorded value
    // (a within-cycle revert).
    for (const int i : changed) {
      const auto v = static_cast<std::size_t>(i);
      if (stamp_[v] == cycle) continue;
      if (!std::equal(value_[v], value_[v] + (offset_[v + 1] - offset_[v]),
                      last_.data() + offset_[v])) {
        return diverge(cycle);
      }
    }
  }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  // Registers the stand-in `name` for the process that drives `p`'s
  // environment side: the request channel and r_gnt on an initiator-side
  // bundle, gnt and the response channel on a target one.
  void stand_in(const std::string& name, const stbus::PortPins& p,
                bool initiator_side) {
    std::vector<const sim::SignalBase*> pins =
        initiator_side ? p.request_signals() : p.response_signals();
    pins.push_back(initiator_side ? &p.r_gnt : &p.gnt);
    for (const sim::SignalBase* s : pins) {
      driven_[static_cast<std::size_t>(s->index())] = 1;
    }
    int lo = p.req.index();
    int hi = lo;
    for (const sim::SignalBase* s : p.all_signals()) {
      lo = std::min(lo, s->index());
      hi = std::max(hi, s->index() + 1);
    }
    ctx_.add_clocked("replay." + name, [this, lo, hi] { drive(lo, hi); });
  }

  // Writes the recording's changes of this cycle to the driven pins among
  // variables [lo, hi), stepping over the cycle's changes below `lo`.
  void drive(int lo, int hi) {
    const std::uint64_t c = ctx_.cycle();
    const auto& signals = ctx_.signals();
    for (; drive_ != end_; ++drive_) {
      const Entry e = *drive_;
      if (e.time > c || (e.time == c && e.var >= hi)) return;
      if (e.time == c && e.var >= lo &&
          driven_[static_cast<std::size_t>(e.var)]) {
        signals[static_cast<std::size_t>(e.var)]->write_words(
            e.value.words());
      }
    }
  }

  void diverge(std::uint64_t cycle) {
    diverged_ = true;
    divergence_ = cycle;
  }

  const vcd::Trace& rtl_;
  sim::Context ctx_;
  Dut dut_;
  std::vector<std::vector<int>> fields_;
  stba::CellCounter cells_;
  vcd::Trace::LogIterator drive_;
  vcd::Trace::LogIterator check_;
  vcd::Trace::LogIterator end_;
  std::vector<char> driven_;  // per signal: a stand-in writes it

  // The check: each signal's value words, its slice of last_ (the value
  // the recording last logged for it) and the last cycle it was logged.
  std::vector<const std::uint64_t*> value_;
  std::vector<std::size_t> offset_;
  std::vector<std::uint64_t> last_;
  std::vector<std::uint64_t> stamp_;
  bool first_ = true;
  std::uint64_t last_change_ = 0;
  bool diverged_ = false;
  std::uint64_t divergence_ = 0;
};

}  // namespace

BcaReplay replay_bca(const stbus::NodeConfig& cfg, const verif::TestSpec& spec,
                     sim::KernelKind kernel, const bca::Faults& faults,
                     const vcd::Trace& rtl, std::uint64_t cycles) {
  return Replayer(verif::test_config(cfg, spec), spec, kernel, faults, rtl)
      .run(cycles);
}

verif::RunResult settle_replayed_bca(const verif::RunResult& rtl,
                                     std::uint64_t evaluations) {
  verif::RunResult bca;
  bca.completed = rtl.completed;
  bca.cycles = rtl.cycles;
  bca.evaluations = evaluations;
  bca.take_passive_verdict(rtl);
  return bca;
}

}  // namespace crve::regress

#include "sim/design_graph.h"

#include <algorithm>
#include <unordered_map>

#include "sim/context.h"
#include "sim/schedule.h"

namespace crve::sim {

namespace {

std::vector<int> sorted_unique(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<int> signal_indices(const std::vector<const SignalBase*>& sigs) {
  std::vector<int> out;
  out.reserve(sigs.size());
  for (const SignalBase* s : sigs) out.push_back(s->index());
  return sorted_unique(std::move(out));
}

}  // namespace

DesignGraph Context::export_design_graph() {
  if (kernel_ != KernelKind::kCompiled) {
    throw SimError(
        "export_design_graph() requires the compiled kernel: the interpreter "
        "never builds the dependency graph the export freezes");
  }
  initialize();
  design_exported_ = true;

  DesignGraph g;
  g.signals.reserve(signals_.size());
  for (const SignalBase* s : signals_) {
    g.signals.push_back({s->name(), s->width(), false});
  }
  for (const int idx : construction_writes_) {
    g.signals[static_cast<std::size_t>(idx)].construction_written = true;
  }

  g.n_comb = comb_.size();
  g.n_ranks = sched_->n_ranks();
  g.procs.reserve(comb_.size() + clocked_.size());

  std::unordered_map<std::string, int> comb_index;
  for (std::size_t i = 0; i < comb_.size(); ++i) {
    comb_index[comb_[i].name] = static_cast<int>(i);
  }

  for (std::size_t i = 0; i < comb_.size(); ++i) {
    DesignProc p;
    p.name = comb_[i].name;
    p.clocked = false;
    p.reads = sorted_unique(discovery_[i].reads);
    p.writes = sorted_unique(discovery_[i].writes);
    p.declared_reads = signal_indices(comb_[i].opts.reads);
    p.declared_writes = signal_indices(comb_[i].opts.writes);
    p.has_state_tag = comb_[i].opts.state != nullptr;
    for (const std::string& producer : comb_[i].opts.after) {
      p.after.push_back(comb_index.at(producer));
    }
    g.procs.push_back(std::move(p));
  }
  for (std::size_t r = 0; r < sched_->ranks.size(); ++r) {
    for (const int pi : sched_->ranks[r]) {
      g.procs[static_cast<std::size_t>(pi)].rank = static_cast<int>(r);
    }
  }

  // Post-settle recheck: one more instrumented evaluation of every
  // combinational process against the settled values. Branches that opened
  // up between the all-idle discovery pass and the settled design diverge
  // here — the raw material for the under-declaration rule.
  for (std::size_t i = 0; i < comb_.size(); ++i) {
    arena_.begin_recording();
    comb_[i].fn();
    DesignProc& p = g.procs[i];
    p.recheck_reads = sorted_unique(arena_.reads);
    p.recheck_writes = sorted_unique(arena_.writes);
    arena_.end_recording();
  }

  // Clocked processes: one instrumented evaluation each (their only one —
  // the kernel never records them). The evaluation advances module state,
  // which is why the export is terminal.
  for (auto& c : clocked_) {
    arena_.begin_recording();
    c.fn();
    DesignProc p;
    p.name = c.name;
    p.clocked = true;
    p.reads = sorted_unique(arena_.reads);
    p.writes = sorted_unique(arena_.writes);
    arena_.end_recording();
    p.declared_reads = signal_indices(c.decl.reads);
    p.declared_writes = signal_indices(c.decl.writes);
    g.procs.push_back(std::move(p));
  }

  // The re-evaluations were never committed: drop their pending writes'
  // dirty marks so the arena is left consistent (the step() guard makes any
  // further simulation impossible anyway).
  for (const int idx : arena_.dirty) {
    arena_.flags[static_cast<std::size_t>(idx)] &=
        static_cast<std::uint8_t>(~SignalArena::kDirtyFlag);
  }
  arena_.dirty.clear();

  return g;
}

}  // namespace crve::sim

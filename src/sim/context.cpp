#include "sim/context.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/schedule.h"

namespace crve::sim {

SignalBase::SignalBase(Context& ctx, std::string name, int width)
    : name_(std::move(name)), width_(width) {
  ctx.register_signal(this);
}

Context::Context() = default;
Context::~Context() = default;

void Context::check_unique_name(const std::string& name) {
  if (!proc_names_.insert(name).second) {
    throw SimError("duplicate process name: " + name);
  }
}

void Context::add_clocked(std::string name, std::function<void()> fn) {
  add_clocked(std::move(name), std::move(fn), ClockedOpts{});
}

void Context::add_clocked(std::string name, std::function<void()> fn,
                          ClockedOpts opts) {
  check_unique_name(name);
  clocked_.push_back({std::move(name), std::move(fn), {}, std::move(opts)});
}

void Context::add_comb(std::string name, std::function<void()> fn) {
  add_comb(std::move(name), std::move(fn), CombOpts{});
}

void Context::add_comb(std::string name, std::function<void()> fn,
                       CombOpts opts) {
  check_unique_name(name);
  comb_.push_back(
      {std::move(name), std::move(fn), std::move(opts), /*decl=*/{}});
}

void Context::set_kernel(KernelKind k) {
  if (initialized_) {
    throw SimError("set_kernel() after initialize()");
  }
  kernel_ = k;
}

void Context::set_profiling(bool on) {
  if (initialized_) {
    throw SimError("set_profiling() after initialize()");
  }
  profiling_ = on;
}

bool Context::commit_dirty() {
  bool changed = false;
  // Dirty signals were deduped at write time via the arena flag byte, so
  // the commit walk is a single pass over the insertion-order list.
  for (const int idx : arena_.dirty) {
    const auto i = static_cast<std::size_t>(idx);
    arena_.flags[i] &= static_cast<std::uint8_t>(~SignalArena::kDirtyFlag);
    if (signals_[i]->commit()) {
      changed = true;
      if (!(arena_.flags[i] & SignalArena::kInChangedFlag)) {
        arena_.flags[i] |= SignalArena::kInChangedFlag;
        changed_.push_back(idx);
      }
      if (sched_) {
        // Change-driven skipping: only the static readers of this signal
        // need to re-evaluate.
        for (const int p : sched_->signal_readers[i]) mark_proc_dirty(p);
      }
      if (profiling_) {
        // Fan-out churn: each commit marks this signal's static readers
        // dirty, so commits x fan-out is its induced scheduling work.
        ++prof_sig_commits_[i];
        if (sched_) prof_sig_marks_[i] += sched_->signal_readers[i].size();
      }
    }
  }
  arena_.dirty.clear();
  return changed;
}

void Context::snapshot_all() {
  for (const int i : changed_) {
    arena_.flags[static_cast<std::size_t>(i)] &=
        static_cast<std::uint8_t>(~SignalArena::kInChangedFlag);
  }
  changed_.clear();
  changed_.reserve(signals_.size());
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    changed_.push_back(static_cast<int>(i));
  }
}

void Context::sample_tracers() {
  changed_samples_ += changed_.size();
  for (Tracer* t : tracers_) t->sample(cycle_, signals_, changed_);
  for (const int i : changed_) {
    arena_.flags[static_cast<std::size_t>(i)] &=
        static_cast<std::uint8_t>(~SignalArena::kInChangedFlag);
  }
  changed_.clear();
}

void Context::run_clocked() {
  if (!profiling_) {
    for (auto& p : clocked_) {
      p.fn();
      ++evaluations_;
    }
    return;
  }
  for (std::size_t i = 0; i < clocked_.size(); ++i) {
    const std::uint64_t t0 = obs::now_ns();
    clocked_[i].fn();
    prof_clocked_[i].wall_ns += obs::now_ns() - t0;
    ++prof_clocked_[i].evals;
    ++evaluations_;
  }
}

void Context::settle() {
  for (int iter = 0;; ++iter) {
    if (iter >= delta_limit_) {
      throw SimError("combinational loop: no fixpoint after " +
                     std::to_string(delta_limit_) + " delta cycles at cycle " +
                     std::to_string(cycle_));
    }
    ++delta_iterations_;
    if (!profiling_) {
      for (auto& p : comb_) {
        p.fn();
        ++evaluations_;
      }
    } else {
      for (std::size_t i = 0; i < comb_.size(); ++i) {
        const std::uint64_t t0 = obs::now_ns();
        comb_[i].fn();
        prof_comb_[i].wall_ns += obs::now_ns() - t0;
        ++prof_comb_[i].evals;
        ++evaluations_;
      }
    }
    if (!commit_dirty()) break;
  }
}

std::string Context::dirty_proc_names() const {
  std::string names;
  for (std::size_t i = 0; i < comb_.size(); ++i) {
    if (!proc_dirty_[i]) continue;
    if (!names.empty()) names += ", ";
    names += comb_[i].name;
  }
  return names;
}

void Context::build_compiled_schedule() {
  std::vector<ProcNode> nodes;
  nodes.reserve(comb_.size());
  std::vector<char> seen(signals_.size(), 0);
  // Discovery pass: one instrumented run of every combinational process, in
  // registration order with commits deferred — exactly the interpreter's
  // first delta iteration, so both kernels settle construction-time writes
  // to the same fixpoint.
  for (auto& p : comb_) {
    arena_.begin_recording();
    p.fn();
    ++evaluations_;
    ProcNode node;
    node.name = p.name;
    node.reads = arena_.reads;
    node.writes = arena_.writes;
    arena_.end_recording();
    // Recorded-only sets, retained for export_design_graph() before the
    // declared reads are folded in below.
    discovery_.push_back(node);
    // The effective read-set is recorded ∪ declared: discovery only sees
    // the branches taken on the initial all-idle evaluation.
    for (const int s : node.reads) seen[static_cast<std::size_t>(s)] = 1;
    for (const SignalBase* sig : p.opts.reads) {
      const int s = sig->index();
      if (!seen[static_cast<std::size_t>(s)]) {
        seen[static_cast<std::size_t>(s)] = 1;
        node.reads.push_back(s);
      }
    }
    for (const int s : node.reads) seen[static_cast<std::size_t>(s)] = 0;
    nodes.push_back(std::move(node));
  }

  std::unordered_map<std::string, int> comb_index;
  for (std::size_t i = 0; i < comb_.size(); ++i) {
    comb_index[comb_[i].name] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < comb_.size(); ++i) {
    for (const std::string& producer : comb_[i].opts.after) {
      const auto it = comb_index.find(producer);
      if (it == comb_index.end()) {
        throw SimError("CombOpts::after names unknown process '" + producer +
                       "' (required by " + comb_[i].name + ")");
      }
      nodes[i].after.push_back(it->second);
    }
  }

  std::vector<std::string> signal_names;
  signal_names.reserve(signals_.size());
  for (const SignalBase* s : signals_) signal_names.push_back(s->name());

  sched_ = std::make_unique<CompiledSchedule>(
      build_schedule(nodes, signals_.size(), signal_names));
  sched_ranks_ = sched_->n_ranks();
  if (profiling_) {
    prof_rank_.assign(comb_.size(), -1);
    for (std::size_t r = 0; r < sched_->ranks.size(); ++r) {
      for (const int p : sched_->ranks[r]) {
        prof_rank_[static_cast<std::size_t>(p)] = static_cast<int>(r);
      }
    }
  }

  proc_dirty_.assign(comb_.size(), 0);
  n_dirty_ = 0;
  tag_groups_.clear();
  for (std::size_t i = 0; i < comb_.size(); ++i) {
    const StateTag* tag = comb_[i].opts.state;
    if (tag == nullptr) continue;
    auto it = std::find_if(tag_groups_.begin(), tag_groups_.end(),
                           [tag](const TagGroup& g) { return g.tag == tag; });
    if (it == tag_groups_.end()) {
      tag_groups_.push_back({tag, tag->version, {}});
      it = std::prev(tag_groups_.end());
    }
    it->procs.push_back(static_cast<int>(i));
  }
}

void Context::settle_compiled() {
  if (n_dirty_ == 0) {
    // Nothing changed this cycle: the whole schedule is skipped.
    sched_skipped_ += comb_.size();
    if (profiling_) {
      // Attribute the whole-schedule skip per process so skip-effectiveness
      // stays exact on idle-dominated shapes.
      for (const auto& rank : sched_->ranks) {
        for (const int p : rank) ++prof_comb_[static_cast<std::size_t>(p)].skips;
      }
    }
    return;
  }
  for (const auto& rank : sched_->ranks) {
    for (const int p : rank) {
      if (proc_dirty_[static_cast<std::size_t>(p)]) {
        proc_dirty_[static_cast<std::size_t>(p)] = 0;
        --n_dirty_;
        if (!profiling_) {
          comb_[static_cast<std::size_t>(p)].fn();
        } else {
          ProcStats& ps = prof_comb_[static_cast<std::size_t>(p)];
          const std::uint64_t t0 = obs::now_ns();
          comb_[static_cast<std::size_t>(p)].fn();
          ps.wall_ns += obs::now_ns() - t0;
          ++ps.evals;
        }
        ++evaluations_;
        for (const int d : sched_->run_dependents[static_cast<std::size_t>(p)]) {
          mark_proc_dirty(d);
        }
      } else {
        ++sched_skipped_;
        if (profiling_) ++prof_comb_[static_cast<std::size_t>(p)].skips;
      }
    }
    commit_dirty();
  }
  // Recorded edges only point to higher ranks, so one pass settles. A
  // process still dirty here read a signal written on a branch elaboration
  // never recorded, by a process at its own rank or later.
  if (n_dirty_ != 0) {
    throw SimError("combinational process re-dirtied after its rank ran at "
                   "cycle " + std::to_string(cycle_) + ": " +
                   dirty_proc_names() +
                   " (order it after its writer with CombOpts::after)");
  }
}

void Context::publish_metrics() const {
  if (!obs::metrics_enabled()) return;
  obs::counter("sim.runs").inc();
  obs::counter("sim.cycles").add(cycle_);
  obs::counter("sim.evaluations").add(evaluations_);
  obs::counter("sim.delta_iterations").add(delta_iterations_);
  obs::counter("sim.changed_signal_samples").add(changed_samples_);
  obs::histogram("sim.cycles_per_run").observe(cycle_);
  if (kernel_ == KernelKind::kCompiled) {
    obs::counter("sim.sched.ranks").add(sched_ranks_);
    obs::counter("sim.sched.skipped_evaluations").add(sched_skipped_);
  }
}

obs::ProfileData Context::profile() const {
  obs::ProfileData pd;
  if (!profiling_) return pd;
  pd.runs = 1;
  pd.cycles = cycle_;
  pd.procs.reserve(clocked_.size() + comb_.size());
  for (std::size_t i = 0; i < clocked_.size(); ++i) {
    obs::ProcProfile p;
    p.name = clocked_[i].name;
    p.clocked = true;
    p.evals = prof_clocked_[i].evals;
    p.wall_ns = prof_clocked_[i].wall_ns;
    pd.procs.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < comb_.size(); ++i) {
    obs::ProcProfile p;
    p.name = comb_[i].name;
    p.rank = prof_rank_.empty() ? -1 : prof_rank_[i];
    p.evals = prof_comb_[i].evals;
    p.skips = prof_comb_[i].skips;
    p.wall_ns = prof_comb_[i].wall_ns;
    pd.procs.push_back(std::move(p));
  }
  std::sort(pd.procs.begin(), pd.procs.end(),
            [](const obs::ProcProfile& a, const obs::ProcProfile& b) {
              return a.name < b.name;
            });
  if (sched_) {
    for (std::size_t r = 0; r < sched_->ranks.size(); ++r) {
      obs::RankProfile row;
      row.rank = static_cast<int>(r);
      row.processes = sched_->ranks[r].size();
      for (const int p : sched_->ranks[r]) {
        row.evals += prof_comb_[static_cast<std::size_t>(p)].evals;
        row.skips += prof_comb_[static_cast<std::size_t>(p)].skips;
      }
      pd.ranks.push_back(row);
    }
  }
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    if (prof_sig_commits_[i] == 0) continue;
    obs::SignalProfile s;
    s.name = signals_[i]->name();
    s.commits = prof_sig_commits_[i];
    s.reader_marks = prof_sig_marks_[i];
    pd.signals.push_back(std::move(s));
  }
  std::sort(pd.signals.begin(), pd.signals.end(),
            [](const obs::SignalProfile& a, const obs::SignalProfile& b) {
              return a.name < b.name;
            });
  return pd;
}

void Context::initialize() {
  if (initialized_) return;
  initialized_ = true;
  if (profiling_) {
    // Every signal and process is registered by now (construction phase);
    // size the accumulators before the first commit walks them.
    prof_clocked_.assign(clocked_.size(), {});
    prof_comb_.assign(comb_.size(), {});
    prof_rank_.assign(comb_.size(), -1);
    prof_sig_commits_.assign(signals_.size(), 0);
    prof_sig_marks_.assign(signals_.size(), 0);
  }
  // Construction-phase writes, captured for the design graph before the
  // commit clears the dirty list (export_design_graph's "driven at
  // construction" distinction).
  construction_writes_ = arena_.dirty;
  commit_dirty();  // writes made during construction
  if (kernel_ == KernelKind::kInterp) {
    settle();
  } else {
    // Discovery + levelization; a true combinational cycle throws here, at
    // elaboration, before any settling is attempted.
    build_compiled_schedule();
    commit_dirty();  // discovery writes; marks changed signals' readers
    settle_compiled();
  }
  // First sample: every signal is "changed" so tracers take a full snapshot.
  snapshot_all();
  sample_tracers();
}

void Context::step(int n) {
  if (design_exported_) {
    throw SimError(
        "step() after export_design_graph(): the export re-evaluated "
        "processes under instrumentation (analysis-only); elaborate a fresh "
        "Context to simulate");
  }
  initialize();
  if (kernel_ == KernelKind::kInterp) {
    for (int i = 0; i < n; ++i) {
      ++cycle_;
      run_clocked();
      commit_dirty();
      settle();
      sample_tracers();
    }
    return;
  }
  for (int i = 0; i < n; ++i) {
    ++cycle_;
    run_clocked();
    commit_dirty();
    for (auto& g : tag_groups_) {
      const std::uint64_t v = g.tag->version;
      if (g.seen != v) {
        g.seen = v;
        for (const int p : g.procs) mark_proc_dirty(p);
      }
    }
    // Exactly one scheduled evaluation per cycle on a static graph.
    ++delta_iterations_;
    settle_compiled();
    sample_tracers();
  }
}

}  // namespace crve::sim

// Cycle-based simulation kernel: compiled schedule + interpreter fallback.
//
// One implicit clock domain (the paper's testbenches drive one clock from
// the VHDL testbench; everything else is driven by processes). Each step():
//   1. clocked processes run (reading pre-edge values, scheduling writes),
//   2. writes commit,
//   3. combinational processes settle,
//   4. tracers sample the settled cycle.
//
// Two kernels implement phase 3 (DESIGN.md §14):
//
//   * kCompiled (default): at initialize() every combinational process runs
//     once under instrumented signals; the recorded read/write sets (union
//     of recorded and CombOpts-declared reads) are levelized into a static
//     rank-ordered schedule (schedule.h). Steady-state cycles evaluate each
//     rank once, skipping any process none of whose inputs committed a
//     change — true combinational cycles are rejected at elaboration with a
//     named cycle path.
//   * kInterp: the original delta-cycle interpreter — every combinational
//     process re-runs until fixpoint. Kept as the differential-testing
//     escape hatch (--sim-kernel interp); both kernels produce byte-
//     identical reports, VCDs and alignment results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/signal.h"

namespace crve::obs {
struct ProfileData;
}

namespace crve::sim {

struct CompiledSchedule;
struct DesignGraph;
struct ProcNode;

// Observer sampling settled signal values once per cycle (e.g. the trace
// recorder).
//
// `changed` holds the indices (into `signals`) of the signals whose
// visible value changed during this cycle's commits — the kernel already
// knows this from commit(), so tracers never have to rescan the full signal
// list. Each index appears once, in commit order (not sorted): a tracer
// must handle each signal on its own, independent of its position. On the
// very first sample of a run the kernel reports every signal as changed,
// giving tracers a full initial snapshot. A value that changes and reverts
// within one cycle's delta settling may appear in `changed` with its final
// value equal to the previous sample; tracers that care must compare
// against their own last-seen state.
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void sample(std::uint64_t cycle,
                      const std::vector<SignalBase*>& signals,
                      const std::vector<int>& changed) = 0;
};

class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class KernelKind { kCompiled, kInterp };

// Scheduling contract of a combinational process under the compiled kernel.
// Interpreted kernels ignore everything here.
struct CombOpts {
  // Signals the process may read beyond what elaboration-time discovery
  // observes. Models whose read-set is data-dependent (e.g. a mux that
  // skips idle ports) must declare the full superset here; discovery only
  // sees the reads taken on the initial all-idle evaluation.
  std::vector<const SignalBase*> reads;
  // Names of combinational processes that must evaluate before this one and
  // whose execution re-dirties it — for decision "wires" passed through
  // module members instead of signals.
  std::vector<std::string> after;
  // Module-internal state the process reads that is mutated by clocked
  // processes (queues, FSM phases). The process is re-dirtied whenever the
  // owning module bumps the tag.
  const StateTag* state = nullptr;
  // Design-analysis declaration only (DESIGN.md §17) — the kernel ignores
  // it. Signals the process writes only on data-dependent branches (e.g. a
  // response payload driven while a packet is pending): elaboration-time
  // recording sees the idle branch, so without the declaration the design
  // linter would report the signal as never written.
  std::vector<const SignalBase*> writes;
};

// Design-analysis declarations for a clocked process (DESIGN.md §17). The
// kernel itself ignores these — every clocked process runs every cycle
// regardless — but the elaboration-time design linter records only the
// branches a single evaluation takes, and a clocked process's pin accesses
// are usually data-dependent (a BFM reads response pins only while a
// response is in flight). Declaring the full superset here keeps the
// read/write view of the exported DesignGraph truthful.
struct ClockedOpts {
  std::vector<const SignalBase*> reads;
  std::vector<const SignalBase*> writes;
};

class Context {
 public:
  Context();
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- construction phase -------------------------------------------------
  // Process names must be unique (kernel diagnostics and `after` edges
  // address processes by name); duplicates throw SimError.
  void add_clocked(std::string name, std::function<void()> fn);
  void add_clocked(std::string name, std::function<void()> fn,
                   ClockedOpts opts);
  void add_comb(std::string name, std::function<void()> fn);
  void add_comb(std::string name, std::function<void()> fn, CombOpts opts);

  // Selects the settling kernel; must be called before initialize().
  void set_kernel(KernelKind k);
  KernelKind kernel() const { return kernel_; }

  // Registered automatically by SignalBase; exposed for tracers.
  const std::vector<SignalBase*>& signals() const { return signals_; }

  void attach_tracer(Tracer* t) { tracers_.push_back(t); }

  // --- run phase ------------------------------------------------------
  // Settles combinational logic before the first edge; under the compiled
  // kernel this also runs dependency discovery and levelization, throwing
  // SimError with a named path on a true combinational cycle. Called
  // implicitly by the first step(); callable explicitly for tests.
  void initialize();

  // Advances n clock cycles.
  void step(int n = 1);

  std::uint64_t cycle() const { return cycle_; }
  // Total process evaluations, a proxy for simulator work (bench_sim_speed).
  std::uint64_t evaluations() const { return evaluations_; }
  // Scheduled settling passes. Interpreter: delta iterations (>= 1 per
  // cycle; the excess measures combinational churn). Compiled kernel:
  // exactly 1 per cycle.
  std::uint64_t delta_iterations() const { return delta_iterations_; }
  // Sum of per-cycle changed-set sizes handed to tracers (the initial
  // full-snapshot sample included) — the trace path's true workload.
  std::uint64_t changed_signal_samples() const { return changed_samples_; }

  // Compiled-schedule counters (zero under the interpreter).
  std::uint64_t sched_ranks() const { return sched_ranks_; }
  std::uint64_t sched_skipped_evaluations() const { return sched_skipped_; }

  // Publishes this kernel's counters (cycles, evaluations, delta
  // iterations, changed-signal samples, sim.sched.*) into the obs metrics
  // registry. No-op while collection is disabled. Call at end of run; the
  // counters are kept as plain members during simulation so the hot loop
  // never pays for instrumentation.
  void publish_metrics() const;

  // Max interpreter delta iterations before declaring a combinational loop
  // (the compiled kernel rejects loops at elaboration instead).
  void set_delta_limit(int limit) { delta_limit_ = limit; }

  // --- kernel hotspot profiler (DESIGN.md §15) ----------------------------
  // Off by default: every collection site in the hot loops is one
  // well-predicted branch, keeping the disabled path inside the obs <2%
  // overhead budget (BM_ProfilerDisabled). Enabled, each process
  // evaluation pays two monotonic-clock reads and each signal commit a
  // couple of counter bumps. Must be set before initialize().
  void set_profiling(bool on);
  bool profiling() const { return profiling_; }

  // Snapshot of the per-process / per-rank / per-signal counters collected
  // so far (runs = 1). Signals that never committed a change are omitted.
  obs::ProfileData profile() const;

  // --- design graph export (design_graph.h, DESIGN.md §17) ----------------
  // Elaborates (initialize()) under the compiled kernel and freezes the
  // discovered structure — signals, read/write sets, declarations, ranks —
  // into an immutable DesignGraph, re-evaluating every process once more
  // under instrumentation for the post-settle recheck sets. Terminal:
  // the re-evaluations perturb module state, so step() afterwards throws
  // SimError. Throws SimError under the interpreter kernel.
  DesignGraph export_design_graph();

 private:
  friend class SignalBase;
  void register_signal(SignalBase* s) {
    s->index_ = arena_.add_signal();
    s->arena_ = &arena_;
    signals_.push_back(s);
  }

  // Commits pending writes; returns whether any visible value changed.
  // Under an active compiled schedule, marks the static readers of every
  // changed signal dirty.
  bool commit_dirty();
  void run_clocked();      // clocked phase of one edge (profiling-aware)
  void settle();           // interpreter fixpoint
  void settle_compiled();  // one pass over the ranks
  void build_compiled_schedule();
  void mark_proc_dirty(int p) {
    if (!proc_dirty_[static_cast<std::size_t>(p)]) {
      proc_dirty_[static_cast<std::size_t>(p)] = 1;
      ++n_dirty_;
    }
  }
  // Resets the changed-set and refills it with every signal index, so the
  // next sample_tracers() hands tracers a full snapshot (first-sample
  // semantics, shared by both kernel paths).
  void snapshot_all();
  // Hands the cycle's changed-set to every tracer, then resets it.
  void sample_tracers();
  std::string dirty_proc_names() const;
  void check_unique_name(const std::string& name);

  struct Process {
    std::string name;
    std::function<void()> fn;
    CombOpts opts;        // comb processes only
    ClockedOpts decl;     // clocked processes only (design-lint declarations)
  };

  SignalArena arena_;
  std::vector<SignalBase*> signals_;
  std::vector<int> changed_;  // indices changed since the last sample
  std::vector<Process> clocked_;
  std::vector<Process> comb_;
  std::vector<Tracer*> tracers_;
  std::unordered_set<std::string> proc_names_;

  KernelKind kernel_ = KernelKind::kCompiled;
  std::unique_ptr<CompiledSchedule> sched_;
  // Discovery-pass nodes with *recorded-only* read/write sets (before the
  // declared-read union build_compiled_schedule feeds the scheduler), kept
  // for export_design_graph(); tiny next to the simulation state.
  std::vector<ProcNode> discovery_;
  // Signal indices with a pending write when initialize() ran its first
  // commit — values strapped during construction (export_design_graph).
  std::vector<int> construction_writes_;
  bool design_exported_ = false;
  std::vector<std::uint8_t> proc_dirty_;   // per comb process
  std::size_t n_dirty_ = 0;
  // StateTag checks grouped by unique tag: many processes share one model's
  // tag, so the per-cycle scan compares one version per tag, not per proc.
  struct TagGroup {
    const StateTag* tag;
    std::uint64_t seen;
    std::vector<int> procs;
  };
  std::vector<TagGroup> tag_groups_;

  // Profiler accumulators, sized at initialize() when profiling is on.
  // Indexed like clocked_/comb_/signals_; wall_ns is exclusive time inside
  // the process fn (a process never calls another process).
  struct ProcStats {
    std::uint64_t evals = 0;
    std::uint64_t skips = 0;
    std::uint64_t wall_ns = 0;
  };
  std::vector<ProcStats> prof_clocked_;
  std::vector<ProcStats> prof_comb_;
  std::vector<int> prof_rank_;  // rank per comb process; -1 = unranked
  std::vector<std::uint64_t> prof_sig_commits_;
  std::vector<std::uint64_t> prof_sig_marks_;
  bool profiling_ = false;

  std::uint64_t cycle_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t delta_iterations_ = 0;
  std::uint64_t changed_samples_ = 0;
  std::uint64_t sched_ranks_ = 0;
  std::uint64_t sched_skipped_ = 0;
  int delta_limit_ = 64;
  bool initialized_ = false;
};

}  // namespace crve::sim

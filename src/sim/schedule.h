// Elaboration-time levelization for the compiled simulation kernel.
//
// At initialize() the Context runs every combinational process once under
// instrumented signals, records each process's read- and write-set (union of
// the recorded set and any reads declared via CombOpts), and hands the
// result here. build_schedule() turns the signal-mediated dependency graph
// into a static rank-ordered schedule:
//
//   * edge writer -> reader for every signal written by one static process
//     and read by another (plus explicit `after` ordering edges);
//   * ranks assigned by longest path from the sources (Kahn's algorithm), so
//     one in-order pass over the ranks settles any acyclic graph;
//   * a true combinational cycle — including a process writing a signal in
//     its own read-set — is detected here, at elaboration, and reported as a
//     SimError naming the full cycle path (process and signal names), which
//     replaces the interpreter's anonymous runtime delta-limit throw.
//
// Processes with data-dependent read-sets stay in the graph by declaring
// their full read superset (CombOpts::reads).
//
// The schedule also carries the signal -> static-reader adjacency the
// kernel uses for change-driven process skipping: a commit that changes a
// signal marks exactly the processes that read it dirty.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace crve::sim {

// One combinational process as seen by the scheduler. Signal sets hold
// indices into Context::signals(); `after` holds process indices that must
// evaluate before this one (and whose execution re-dirties it).
struct ProcNode {
  std::string name;
  std::vector<int> reads;
  std::vector<int> writes;
  std::vector<int> after;
};

struct CompiledSchedule {
  // Process indices grouped by rank, ascending; evaluating the ranks in
  // order settles an acyclic graph in a single pass.
  std::vector<std::vector<int>> ranks;
  // signal index -> processes whose read-set contains it.
  std::vector<std::vector<int>> signal_readers;
  // process index -> processes re-dirtied whenever it executes (the
  // consumer side of `after` edges).
  std::vector<std::vector<int>> run_dependents;

  std::size_t n_ranks() const { return ranks.size(); }
};

// Levelizes `procs` over `n_signals` signals. `signal_names` is used only
// for diagnostics (cycle paths). Throws sim::SimError (via the caller's
// exception type — a std::runtime_error subclass) naming the cycle path if
// the static dependency graph is cyclic.
CompiledSchedule build_schedule(const std::vector<ProcNode>& procs,
                                std::size_t n_signals,
                                const std::vector<std::string>& signal_names);

}  // namespace crve::sim

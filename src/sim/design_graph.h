// Elaboration-time design graph export (DESIGN.md §17).
//
// The compiled-schedule kernel already learns, at initialize(), everything a
// structural design linter needs: every combinational process's recorded and
// declared read/write sets, the levelized writer→reader graph, the rank
// schedule and StateTag registrations. export_design_graph() freezes that
// knowledge — plus a post-settle re-evaluation of every process under the
// same instrumentation — into an immutable value type the CRVE1xx design
// rules (src/lint/design_rules.cpp) analyze without touching the kernel
// again.
//
// The export is an analysis-only terminal operation: re-evaluating processes
// under recording mutates module-internal state (BFM queues, RNG draws) and
// leaves uncommitted pending writes behind, so a Context that exported its
// graph refuses to step() afterwards. Elaborate a fresh Context to simulate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace crve::sim {

struct DesignSignal {
  std::string name;
  int width = 0;
  // A construction-phase write left a pending value the first commit applied
  // (reset values, constant straps). Such a signal is driven even if no
  // process ever writes it.
  bool construction_written = false;
};

// One process as the design linter sees it. Signal sets hold indices into
// DesignGraph::signals, each sorted ascending and deduplicated.
struct DesignProc {
  std::string name;
  bool clocked = false;

  // Recorded on the discovery evaluation (combinational processes: the
  // kernel's own elaboration pass; clocked processes: one instrumented
  // evaluation at export time). Records only the branches actually taken.
  std::vector<int> reads;
  std::vector<int> writes;

  // Declared supersets: CombOpts::reads/writes for combinational processes,
  // ClockedOpts::reads/writes for clocked ones. Data-dependent accesses
  // invisible to single-evaluation recording are declared here.
  std::vector<int> declared_reads;
  std::vector<int> declared_writes;

  // Combinational processes only: a second instrumented evaluation taken
  // after the design settled. Branches gated by settled values diverge here
  // from the pre-settle discovery pass, which is exactly what the
  // under-declaration rule (CRVE104) needs to see.
  std::vector<int> recheck_reads;
  std::vector<int> recheck_writes;

  // Combinational scheduling contract (kernel view).
  std::vector<int> after;  // producer indices into DesignGraph::procs
  bool has_state_tag = false;
  int rank = -1;  // combinational processes only; -1 otherwise
};

struct DesignGraph {
  std::vector<DesignSignal> signals;
  // Combinational processes first (registration order, matching their rank
  // assignment), then clocked processes in registration order.
  std::vector<DesignProc> procs;
  std::size_t n_comb = 0;
  std::size_t n_ranks = 0;

  std::size_t n_clocked() const { return procs.size() - n_comb; }
};

}  // namespace crve::sim

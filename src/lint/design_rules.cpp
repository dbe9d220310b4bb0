// Design rule family (CRVE100..CRVE110) over the elaborated design graph
// (sim::DesignGraph, DESIGN.md §17).
//
// The compiled-schedule kernel discovers every combinational process's
// read/write sets at initialize(); the export adds one post-settle recheck
// evaluation per combinational process, one instrumented evaluation per
// clocked process, and the CombOpts/ClockedOpts declarations. These rules
// are a pure function of that graph — no simulation, no heuristics over
// source text — so a finding is a statement about the design the kernel
// will actually schedule.
//
// Read/write visibility is deliberately asymmetric. Combinational sets are
// near-exact (recorded ∪ declared is what the scheduler itself uses);
// clocked sets are a single evaluation plus declarations, so the driven/read
// rules (CRVE100/101) treat clocked declarations as first-class: a BFM that
// declares it writes the request pins counts as their driver even when its
// first evaluation only drove idle levels.
#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "sim/design_graph.h"

namespace crve::lint {

namespace {

using sim::DesignGraph;
using sim::DesignProc;

bool contains(const std::vector<int>& sorted, int v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

// Effective read set of a combinational process: what the scheduler uses.
bool comb_effective_read(const DesignProc& p, int s) {
  return contains(p.reads, s) || contains(p.declared_reads, s);
}

std::string view_prefix(const std::string& view) {
  return view.empty() ? std::string() : "view " + view + ": ";
}

}  // namespace

Report lint_design_graph(const sim::DesignGraph& g, const std::string& origin,
                         const std::string& view,
                         const DesignRuleOptions& opts) {
  Report rep;
  const std::string vp = view_prefix(view);
  const int n_signals = static_cast<int>(g.signals.size());

  // Per-signal reader/writer tallies, one pass over the processes.
  std::vector<std::vector<int>> comb_writers(g.signals.size());
  std::vector<int> read_by(g.signals.size(), 0);
  std::vector<int> written_by(g.signals.size(), 0);
  std::vector<int> first_reader(g.signals.size(), -1);
  std::vector<std::size_t> comb_fanout(g.signals.size(), 0);
  for (std::size_t pi = 0; pi < g.procs.size(); ++pi) {
    const DesignProc& p = g.procs[pi];
    auto tally = [&](const std::vector<int>& set, std::vector<int>& counter) {
      for (const int s : set) ++counter[static_cast<std::size_t>(s)];
    };
    auto note_readers = [&](const std::vector<int>& set) {
      for (const int s : set) {
        if (first_reader[static_cast<std::size_t>(s)] < 0) {
          first_reader[static_cast<std::size_t>(s)] = static_cast<int>(pi);
        }
      }
    };
    if (p.clocked) {
      tally(p.reads, read_by);
      tally(p.declared_reads, read_by);
      tally(p.writes, written_by);
      tally(p.declared_writes, written_by);
      note_readers(p.reads);
      note_readers(p.declared_reads);
    } else {
      tally(p.reads, read_by);
      tally(p.declared_reads, read_by);
      tally(p.recheck_reads, read_by);
      tally(p.writes, written_by);
      tally(p.declared_writes, written_by);
      tally(p.recheck_writes, written_by);
      note_readers(p.reads);
      note_readers(p.declared_reads);
      note_readers(p.recheck_reads);
      for (const int s : p.writes) {
        comb_writers[static_cast<std::size_t>(s)].push_back(
            static_cast<int>(pi));
      }
      for (const int s : p.declared_writes) {
        auto& w = comb_writers[static_cast<std::size_t>(s)];
        if (w.empty() || w.back() != static_cast<int>(pi)) {
          w.push_back(static_cast<int>(pi));
        }
      }
      for (const int s : p.recheck_writes) {
        auto& w = comb_writers[static_cast<std::size_t>(s)];
        if (w.empty() || w.back() != static_cast<int>(pi)) {
          w.push_back(static_cast<int>(pi));
        }
      }
      for (const int s : p.reads) {
        ++comb_fanout[static_cast<std::size_t>(s)];
      }
      for (const int s : p.declared_reads) {
        if (!contains(p.reads, s)) ++comb_fanout[static_cast<std::size_t>(s)];
      }
    }
  }

  // CRVE100: read but never written — the reader sees the construction-time
  // default forever. Construction-strapped constants are drivers.
  // CRVE101: written by a process but read by none. Waveform/trace sampling
  // is observability, not function, so it does not count as a reader.
  // CRVE102: more than one combinational driver — last-writer-wins would
  // depend on schedule order, exactly the nondeterminism the compiled
  // kernel exists to exclude.
  for (int s = 0; s < n_signals; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const std::string& sname = g.signals[si].name;
    if (read_by[si] > 0 && written_by[si] == 0 &&
        !g.signals[si].construction_written) {
      rep.add("CRVE100", origin, 0,
              vp + "signal '" + sname + "' is read (first by process '" +
                  g.procs[static_cast<std::size_t>(first_reader[si])].name +
                  "') but never written: it stays at its default value "
                  "forever");
    }
    if (written_by[si] > 0 && read_by[si] == 0) {
      rep.add("CRVE101", origin, 0,
              vp + "signal '" + sname +
                  "' is written but read by no process (dead logic; trace "
                  "sampling does not count as a reader)");
    }
    if (comb_writers[si].size() > 1) {
      std::string names;
      for (const int pi : comb_writers[si]) {
        if (!names.empty()) names += ", ";
        names += "'" + g.procs[static_cast<std::size_t>(pi)].name + "'";
      }
      rep.add("CRVE102", origin, 0,
              vp + "signal '" + sname + "' has " +
                  std::to_string(comb_writers[si].size()) +
                  " combinational drivers (" + names +
                  "): settle order decides the final value");
    }
  }

  // Producer side of `after` edges: a process someone schedules after has an
  // observable effect (a decision wire through module members) even with no
  // signal writes.
  std::vector<char> is_after_producer(g.procs.size(), 0);
  for (const DesignProc& p : g.procs) {
    for (const int producer : p.after) {
      is_after_producer[static_cast<std::size_t>(producer)] = 1;
    }
  }

  for (std::size_t pi = 0; pi < g.n_comb; ++pi) {
    const DesignProc& p = g.procs[pi];
    const bool no_inputs = p.reads.empty() && p.declared_reads.empty() &&
                           p.after.empty() && !p.has_state_tag;
    const bool no_writes = p.writes.empty() && p.declared_writes.empty() &&
                           p.recheck_writes.empty();

    // CRVE103: outputs with no visible inputs. The compiled schedule
    // re-evaluates a process only when a read signal commits, its StateTag
    // bumps or an `after` producer runs; with none of those, the values it
    // computed at elaboration are frozen — any module state it actually
    // consults goes stale silently.
    if (no_inputs && !no_writes) {
      rep.add("CRVE103", origin, 0,
              vp + "combinational process '" + p.name +
                  "' writes signals but has no recorded or declared reads, "
                  "no StateTag and no after edges: the compiled schedule "
                  "will never re-evaluate it after elaboration");
    }

    // CRVE108: no reads, no writes, no ordering role — a no-op the schedule
    // carries for nothing.
    if (no_inputs && no_writes && !is_after_producer[pi]) {
      rep.add("CRVE108", origin, 0,
              vp + "combinational process '" + p.name +
                  "' neither reads nor writes any signal and takes no part "
                  "in ordering: it can never have an observable effect");
    }

    // CRVE104: the post-settle recheck took a branch the scheduler cannot
    // see. A commit to that signal will not re-dirty this process — the
    // classic stale read the CombOpts::reads contract exists to prevent.
    for (const int s : p.recheck_reads) {
      if (!comb_effective_read(p, s)) {
        rep.add("CRVE104", origin, 0,
                vp + "combinational process '" + p.name +
                    "' read signal '" +
                    g.signals[static_cast<std::size_t>(s)].name +
                    "' when re-evaluated against the settled design, but "
                    "the signal is in neither its recorded nor its "
                    "declared read set: declare it via CombOpts::reads");
      }
    }
    // CRVE105: declared but never seen in either evaluation. Note-level:
    // a legitimately conditional read may hide from both passes.
    for (const int s : p.declared_reads) {
      if (!contains(p.reads, s) && !contains(p.recheck_reads, s)) {
        rep.add("CRVE105", origin, 0,
                vp + "combinational process '" + p.name +
                    "' declares a read of '" +
                    g.signals[static_cast<std::size_t>(s)].name +
                    "' that neither elaboration evaluation observed; a "
                    "stale declaration widens the dirty set for nothing");
      }
    }
  }

  // CRVE107: schedule-shape report. The full numbers always travel in the
  // design summary artifact; findings only flag shapes past the thresholds.
  if (g.n_ranks > opts.max_rank_depth) {
    rep.add("CRVE107", origin, 0,
            vp + "rank schedule is " + std::to_string(g.n_ranks) +
                " levels deep (threshold " +
                std::to_string(opts.max_rank_depth) +
                "): the combinational critical path grew past the budget");
  }
  for (int s = 0; s < n_signals; ++s) {
    const auto si = static_cast<std::size_t>(s);
    if (comb_fanout[si] > opts.max_fanout) {
      rep.add("CRVE107", origin, 0,
              vp + "signal '" + g.signals[si].name + "' fans out to " +
                  std::to_string(comb_fanout[si]) +
                  " static combinational readers (threshold " +
                  std::to_string(opts.max_fanout) +
                  "): every commit marks them all dirty");
    }
  }

  return rep;
}

Report lint_design_views(const sim::DesignGraph& a, const std::string& view_a,
                         const sim::DesignGraph& b, const std::string& view_b,
                         const std::string& origin) {
  Report rep;
  auto env_names = [](const sim::DesignGraph& g) {
    std::vector<std::string> names;
    for (const auto& s : g.signals) {
      if (s.name.rfind("tb.", 0) == 0) names.push_back(s.name);
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const auto na = env_names(a);
  const auto nb = env_names(b);
  auto report_missing = [&](const std::vector<std::string>& have,
                            const std::vector<std::string>& other,
                            const std::string& have_view,
                            const std::string& missing_view) {
    for (const auto& n : have) {
      if (!std::binary_search(other.begin(), other.end(), n)) {
        rep.add("CRVE110", origin, 0,
                "environment signal '" + n + "' exists in the " + have_view +
                    " view but not in the " + missing_view +
                    " view: the common environment diverged");
      }
    }
  };
  report_missing(na, nb, view_a, view_b);
  report_missing(nb, na, view_b, view_a);
  return rep;
}

}  // namespace crve::lint

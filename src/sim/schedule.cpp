#include "sim/schedule.h"

#include <algorithm>
#include <utility>

#include "sim/context.h"

namespace crve::sim {

namespace {

// Edge label: signal index mediating the dependency, or -1 for an explicit
// `after` ordering edge. Used only to name cycle paths.
struct Edge {
  int to;
  int via;  // signal index, -1 = after-edge
};

// Walks the unprocessed (cyclic) subgraph and formats one concrete cycle as
// "p1 --[sig]--> p2 --(after)--> p1".
std::string format_cycle(const std::vector<ProcNode>& procs,
                         const std::vector<std::vector<Edge>>& succ,
                         const std::vector<char>& done,
                         const std::vector<std::string>& signal_names) {
  const int n = static_cast<int>(procs.size());
  std::vector<int> state(static_cast<std::size_t>(n), 0);  // 0 new 1 stack 2 ok
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> parent_via(static_cast<std::size_t>(n), -1);

  for (int root = 0; root < n; ++root) {
    if (done[static_cast<std::size_t>(root)] ||
        state[static_cast<std::size_t>(root)] != 0) {
      continue;
    }
    // Iterative DFS restricted to the unprocessed subgraph.
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    state[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [u, ei] = stack.back();
      const auto& edges = succ[static_cast<std::size_t>(u)];
      if (ei == edges.size()) {
        state[static_cast<std::size_t>(u)] = 2;
        stack.pop_back();
        continue;
      }
      const Edge e = edges[ei++];
      if (done[static_cast<std::size_t>(e.to)]) continue;
      if (state[static_cast<std::size_t>(e.to)] == 1) {
        // Back edge: unwind u -> ... -> e.to through the parent chain.
        std::vector<std::pair<int, int>> path;  // (proc, via-to-next)
        path.emplace_back(u, e.via);
        for (int v = u; v != e.to; v = parent[static_cast<std::size_t>(v)]) {
          const int p = parent[static_cast<std::size_t>(v)];
          path.emplace_back(p, parent_via[static_cast<std::size_t>(v)]);
        }
        std::reverse(path.begin(), path.end());
        std::string msg;
        for (const auto& [proc, via] : path) {
          msg += procs[static_cast<std::size_t>(proc)].name;
          msg += via >= 0 ? " --[" + signal_names[static_cast<std::size_t>(
                                         via)] +
                                "]--> "
                          : " --(after)--> ";
        }
        msg += procs[static_cast<std::size_t>(path.front().first)].name;
        return msg;
      }
      if (state[static_cast<std::size_t>(e.to)] == 0) {
        state[static_cast<std::size_t>(e.to)] = 1;
        parent[static_cast<std::size_t>(e.to)] = u;
        parent_via[static_cast<std::size_t>(e.to)] = e.via;
        stack.emplace_back(e.to, 0);
      }
    }
  }
  return "(cycle path unavailable)";
}

}  // namespace

CompiledSchedule build_schedule(const std::vector<ProcNode>& procs,
                                std::size_t n_signals,
                                const std::vector<std::string>& signal_names) {
  const int n = static_cast<int>(procs.size());
  CompiledSchedule sched;
  sched.signal_readers.assign(n_signals, {});
  sched.run_dependents.assign(static_cast<std::size_t>(n), {});

  // Signal -> writers/readers adjacency.
  std::vector<std::vector<int>> writers(n_signals);
  for (int p = 0; p < n; ++p) {
    const ProcNode& pn = procs[static_cast<std::size_t>(p)];
    for (const int s : pn.reads) {
      sched.signal_readers[static_cast<std::size_t>(s)].push_back(p);
    }
    for (const int s : pn.writes) {
      writers[static_cast<std::size_t>(s)].push_back(p);
    }
  }

  std::vector<std::vector<Edge>> succ(static_cast<std::size_t>(n));
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  auto add_edge = [&](int from, int to, int via) {
    succ[static_cast<std::size_t>(from)].push_back({to, via});
    ++indeg[static_cast<std::size_t>(to)];
  };
  for (std::size_t s = 0; s < n_signals; ++s) {
    for (const int w : writers[s]) {
      for (const int r : sched.signal_readers[s]) {
        if (w == r) {
          // Degenerate cycle: a process writes a signal in its own read-set.
          throw SimError(
              "combinational cycle detected at elaboration: " +
              procs[static_cast<std::size_t>(w)].name + " --[" +
              signal_names[s] + "]--> " +
              procs[static_cast<std::size_t>(w)].name);
        }
        add_edge(w, r, static_cast<int>(s));
      }
    }
  }
  for (int p = 0; p < n; ++p) {
    for (const int producer : procs[static_cast<std::size_t>(p)].after) {
      add_edge(producer, p, -1);
      sched.run_dependents[static_cast<std::size_t>(producer)].push_back(p);
    }
  }

  // Kahn levelization with longest-path ranks.
  std::vector<int> rank(static_cast<std::size_t>(n), 0);
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  std::vector<int> queue;
  for (int p = 0; p < n; ++p) {
    if (indeg[static_cast<std::size_t>(p)] == 0) queue.push_back(p);
  }
  std::size_t processed = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const int u = queue[qi];
    done[static_cast<std::size_t>(u)] = 1;
    ++processed;
    for (const Edge& e : succ[static_cast<std::size_t>(u)]) {
      rank[static_cast<std::size_t>(e.to)] =
          std::max(rank[static_cast<std::size_t>(e.to)],
                   rank[static_cast<std::size_t>(u)] + 1);
      if (--indeg[static_cast<std::size_t>(e.to)] == 0) {
        queue.push_back(e.to);
      }
    }
  }
  if (processed != procs.size()) {
    throw SimError("combinational cycle detected at elaboration: " +
                   format_cycle(procs, succ, done, signal_names));
  }

  int max_rank = -1;
  for (int p = 0; p < n; ++p) {
    max_rank = std::max(max_rank, rank[static_cast<std::size_t>(p)]);
  }
  sched.ranks.assign(static_cast<std::size_t>(max_rank + 1), {});
  // Registration order within a rank, for deterministic evaluation order.
  for (int p = 0; p < n; ++p) {
    sched.ranks[static_cast<std::size_t>(rank[static_cast<std::size_t>(p)])]
        .push_back(p);
  }
  return sched;
}

}  // namespace crve::sim

// Workload generator and loader for the campaign benchmark.
//
// `generate` turns one seed into a workload's inputs on disk: the .cfg
// files of every slice plus a plan.txt naming the campaign seeds, the
// transaction count, the cycle cap and the per-slice fault. The timed
// process only ever sees those files (loaded through the runner's own
// config parser), never the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "regress/runner.h"
#include "verif/testbench.h"

namespace cbench {

// Worker count of every workload, fixed so runs compare across machines
// with at least this many hardware threads.
inline constexpr unsigned kJobs = 4;

struct Slice {
  std::string name;   // "all", "control" or the injected fault's name
  std::string fault;  // empty = clean BCA model
  std::string config_dir;
};

struct Workload {
  std::string name;
  std::string dir;  // work directory holding inputs/ and plan.txt
  std::vector<Slice> slices;
  std::vector<std::uint64_t> seeds;
  int n_transactions = 60;
  std::uint64_t max_cycles = 500000;
  // Sparse rewrite of the CATG suite (0 = suite unchanged).
  int idle_permille = 0;
  int fixed_latency = 0;
  bool alignment = true;
  // Artifacts on disk with triage, the profiler and the txn tracer on.
  bool to_disk = false;
  // A cold cache per repetition that stores every pair.
  bool cold_cache = false;
  // Replays <dir>/cache, filled by `prepare` before timing starts.
  bool warm = false;

  std::vector<crve::verif::TestSpec> tests() const;
  // The slice's batch plan without out_dir, cache_dir, obs outputs and
  // progress, which depend on where and how the campaign runs.
  crve::regress::RunPlan base_plan(const Slice& slice) const;
  std::size_t pairs_per_config() const {
    return tests().size() * seeds.size();
  }
};

bool known_workload(const std::string& name);

// Writes <dir>/inputs/<slice>/*.cfg and <dir>/plan.txt.
void generate(const std::string& name, std::uint64_t seed,
              const std::string& dir);
Workload load(const std::string& dir);

}  // namespace cbench

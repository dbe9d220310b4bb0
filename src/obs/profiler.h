// Kernel hotspot profiler (DESIGN.md §15).
//
// Attributes simulator work to the *named processes* of a sim::Context:
// per-process evaluation/skip counts and exclusive wall time, per-rank
// occupancy of the compiled schedule, and per-signal fan-out churn (how
// many commits a signal made and how many reader dirty-marks those commits
// fanned out to). The kernel collects into plain counters guarded by one
// branch per evaluation site (sim/context.cpp); this header owns the data
// model, the order-independent merge and the JSON rendering.
//
// Determinism contract mirrors the metrics registry's kStable/kTiming
// split: evaluation counts, skip counts, ranks and signal churn are pure
// functions of the work performed, so the merged "stable" section is
// byte-identical for any --jobs value; wall-clock nanoseconds live in a
// separate "timing" section that profile_json can omit entirely
// (with_timing=false). merge() sums by name and re-sorts, so the campaign
// aggregate is independent of job completion order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace crve::obs {

// One named comb/clocked process of a Context.
struct ProcProfile {
  std::string name;
  bool clocked = false;
  // Compiled-schedule rank of a comb process; -1 for clocked processes and
  // everything under the interpreter.
  int rank = -1;
  std::uint64_t evals = 0;    // stable
  std::uint64_t skips = 0;    // stable (compiled kernel only)
  std::uint64_t wall_ns = 0;  // timing: exclusive time inside the process fn
};

// Occupancy of one compiled-schedule rank: of the rank's static processes,
// how many evaluated vs were skipped across all profiled cycles.
struct RankProfile {
  int rank = 0;
  std::uint64_t processes = 0;  // static processes assigned to this rank
  std::uint64_t evals = 0;
  std::uint64_t skips = 0;
};

// Fan-out churn of one signal: every committed value change marks the
// signal's static readers dirty, so reader_marks = commits x fan-out is
// the scheduling work this signal alone induces.
struct SignalProfile {
  std::string name;
  std::uint64_t commits = 0;
  std::uint64_t reader_marks = 0;
};

struct ProfileData {
  std::uint64_t runs = 0;  // merged run (testbench) count
  std::uint64_t cycles = 0;
  std::vector<ProcProfile> procs;      // sorted by name
  std::vector<RankProfile> ranks;      // sorted by rank
  std::vector<SignalProfile> signals;  // sorted by name, commits > 0 only

  bool empty() const { return runs == 0; }
  std::uint64_t total_wall_ns() const;

  // Accumulates `other` into this profile: counters summed by process
  // name / rank id / signal name, vectors re-sorted. Summation is
  // commutative and associative, so any merge order yields the same data
  // (the property the byte-identical stable section rests on).
  void merge(const ProfileData& other);
};

// Skip effectiveness of one process row: skips / (evals + skips).
double skip_rate(const ProcProfile& p);

// Top-n processes by exclusive wall time, ties broken by name so the order
// is total. Rows with zero wall time are dropped.
std::vector<ProcProfile> top_hotspots(const ProfileData& pd, std::size_t n);

// Pretty JSON, inner lines prefixed with `indent` for embedding:
//   {"stable": {runs, cycles, processes: [...], ranks: [...],
//               signals: [...]},
//    "timing": {total_wall_ns, hotspots: [...]}}
// with_timing=false omits the "timing" member and every wall_ns field, so
// the output is byte-identical across worker counts.
std::string profile_json(const ProfileData& pd, bool with_timing = true,
                         const std::string& indent = "");

}  // namespace crve::obs

// Canonical job specifications and pair payloads for the campaign cache
// (DESIGN.md §13).
//
// One JobSpec describes one pair job — both views of (config, test, seed)
// plus their alignment — down to every input its result depends on: the
// configuration as canonical serialized content (not a filename), the test
// by its CATG suite name, and the build provenance that pins the binary
// flavour. canonical_json() is the single serialization the SHA-256 cache
// key is computed over; its field order and formatting are frozen (doubles
// in shortest round-trip form, 64-bit values as hex strings), so the same
// job hashes identically everywhere and any input change — a config edit,
// a new seed, a rebuild — moves the key and misses the cache.
//
// The pair-payload codec round-trips the deterministic slice of a pair's
// results (every field the JSON report renders, including the original
// wall-clock times) so a warm-cache campaign reduces to a report
// byte-identical to the cold run modulo the `cached` provenance fields.
// Payloads are read back from disk, so the decoder accepts only what the
// encoder writes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bca/faults.h"
#include "regress/runner.h"

namespace crve::regress {

struct JobSpec {
  int version = 1;
  std::string config_text;  // canonical format_config() serialization
  std::string test;         // CATG suite name (e.g. "t02_random_all_opcodes")
  std::uint64_t seed = 1;
  int n_transactions = 0;  // effective per-initiator count (override applied)
  std::uint64_t max_cycles = 500000;
  bool run_alignment = true;
  double alignment_threshold = 0.99;
  bool run_triage = true;
  std::uint64_t triage_window = 50;
  // Simulation kernel the jobs run under ("compiled" or "interp"). Part of
  // the hash: the kernels produce byte-identical artifacts, but a cache
  // replay must never mask a kernel-specific bug being hunted with
  // --sim-kernel.
  std::string kernel = "compiled";
  std::vector<std::string> faults;  // sorted active BCA fault names
  // Build provenance of the binary expected to execute this job; part of
  // the hash, so a rebuilt tree never replays another build's results.
  std::string git_hash;
  std::string compiler;
  std::string build_type;
  bool sanitize = false;

  // The frozen canonical form (one line, fixed member order).
  std::string canonical_json() const;
  // SHA-256 of canonical_json() — the cache key.
  std::string hash() const;
};

// Spec for the pair (plan, test, seed), stamped with this build's
// provenance. The effective transaction count (plan override or the
// test's own default) is resolved into the spec.
JobSpec job_spec_for(const RunPlan& plan, const verif::TestSpec& test,
                     std::uint64_t seed);

// --- BCA fault catalogue by name ------------------------------------------
// Shared by the CLI (--fault) and the JobSpec serialization so both agree
// on fault identifiers.
std::vector<std::string> fault_names(const bca::Faults& f);
bool set_fault_by_name(bca::Faults& f, const std::string& name);

// The planner's dry run (--emit-specs):
// {"version": 1, "jobs": [<canonical spec>, ...]}
std::string format_job_specs(const std::vector<JobSpec>& specs);

// --- Pair payload codec (cache entries) -----------------------------------

// The deterministic slice of one executed pair job.
struct PairResult {
  TestOutcome rtl;
  TestOutcome bca;
  bool has_alignment = false;
  AlignmentOutcome alignment;
  // Build that originally executed the pair (report provenance on replay).
  std::string git_hash;
  std::string compiler;
  std::string build_type;
  bool sanitize = false;
};

std::string encode_pair_result(const PairResult& pr,
                               const std::string& spec_hash);
// Throws std::runtime_error ("pair payload: ...") on anything
// encode_pair_result does not write: a missing, extra or mistyped member,
// a 64-bit value that is not json::hex's lowercase form, a version other
// than 1.
PairResult decode_pair_result(const std::string& text);

// The originating build stamp of a decoded pair as a pretty JSON object
// (same shape as build_info_json), nested at `indent`.
std::string pair_build_json(const PairResult& pr, const std::string& indent);

}  // namespace crve::regress

// Functional coverage.
//
// Generic covergroup machinery (coverpoints with value bins, pairwise
// crosses) plus StbusCoverage, the STBus-specific model the CATG library
// ships: opcode/size/port/chunk/status points and their crosses, sized from
// the DUT configuration. Coverage is collected from monitors only, so the
// same model runs on both DUT views, and the paper's invariant — identical
// tests/seeds must produce identical functional coverage on RTL and BCA —
// is directly checkable via digest().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stbus/config.h"
#include "verif/monitor.h"

namespace crve::verif {

struct Bin {
  std::string name;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  // inclusive
  std::uint64_t hits = 0;
};

class Coverpoint {
 public:
  Coverpoint(std::string name, std::vector<Bin> bins);

  // One bin per integer value 0..n-1.
  static Coverpoint identity(std::string name, int n);

  void sample(std::uint64_t v) { hit(bin_of(v)); }
  // Bin index for a value; -1 when no bin matches. Values up to the top
  // bin bound (at most 255) read a table built at construction; larger
  // ones search the bins.
  int bin_of(std::uint64_t v) const {
    return v < index_.size() ? index_[static_cast<std::size_t>(v)] : search(v);
  }
  // Counts one hit in bin `bin` (from bin_of); -1 counts nothing.
  void hit(int bin) {
    if (bin >= 0) ++bins_[static_cast<std::size_t>(bin)].hits;
  }
  // Adds raw hits to a bin (coverage merging across runs).
  void add_hits(int bin, std::uint64_t count) {
    bins_[static_cast<std::size_t>(bin)].hits += count;
  }

  const std::string& name() const { return name_; }
  int num_bins() const { return static_cast<int>(bins_.size()); }
  int bins_hit() const;
  double percent() const;
  const std::vector<Bin>& bins() const { return bins_; }

 private:
  int search(std::uint64_t v) const;

  std::string name_;
  std::vector<Bin> bins_;
  std::vector<std::int16_t> index_;  // bin_of(v) for v < index_.size()
};

// Cross of two coverpoints: a bin per (bin_a, bin_b) pair.
class Cross {
 public:
  Cross(std::string name, const Coverpoint& a, const Coverpoint& b);

  void sample(std::uint64_t va, std::uint64_t vb) {
    hit(a_.bin_of(va), b_.bin_of(vb));
  }
  // Counts one hit in the (bin_a, bin_b) pair; a -1 counts nothing.
  void hit(int bin_a, int bin_b) {
    if (bin_a >= 0 && bin_b >= 0) {
      ++hits_[static_cast<std::size_t>(bin_a * nb_ + bin_b)];
    }
  }

  const std::string& name() const { return name_; }
  int num_bins() const { return na_ * nb_; }
  int bins_hit() const;
  double percent() const;
  std::uint64_t hits(int bin_a, int bin_b) const {
    return hits_[static_cast<std::size_t>(bin_a * nb_ + bin_b)];
  }
  void add_hits(int bin_a, int bin_b, std::uint64_t count) {
    hits_[static_cast<std::size_t>(bin_a * nb_ + bin_b)] += count;
  }

 private:
  std::string name_;
  const Coverpoint& a_;
  const Coverpoint& b_;
  int na_, nb_;
  std::vector<std::uint64_t> hits_;
};

struct CoverageItemReport {
  std::string name;
  int hit = 0;
  int total = 0;
  double percent = 0.0;
};

struct CoverageReport {
  std::vector<CoverageItemReport> items;
  int hit = 0;
  int total = 0;
  double percent = 0.0;
};

// The CATG-style STBus functional coverage model.
class StbusCoverage {
 public:
  explicit StbusCoverage(const stbus::NodeConfig& cfg);

  // Sampling hooks (wired to initiator-port monitors by the testbench).
  void sample_request(int initiator, const ObservedRequest& pkt);
  void sample_response(int initiator, const ObservedResponse& pkt);

  CoverageReport report() const;
  double percent() const { return report().percent; }

  // Accumulate another run's hits (same configuration required).
  void merge(const StbusCoverage& other);

  // Order-insensitive fingerprint of all bin hit counts; equal digests on
  // the RTL and BCA runs is one of the paper's two quality gates.
  std::uint64_t digest() const;

  // Convenience for regression summaries: number of distinct bins hit.
  int bins_hit() const;
  int bins_total() const;

 private:
  stbus::NodeConfig cfg_;
  Coverpoint opcode_;
  Coverpoint size_;
  Coverpoint initiator_;
  Coverpoint target_;  // n_targets bins + one decode-error bin
  Coverpoint chunked_;
  Coverpoint status_;
  Coverpoint outstanding_;  // depth at issue, 0..7+
  Cross opcode_x_target_;
  Cross initiator_x_target_;
  Cross status_x_opcode_;
  std::vector<int> in_flight_;  // per initiator
  // (initiator, tid) -> opcode of the outstanding request, so responses can
  // be crossed against the operation that produced them.
  std::vector<std::vector<int>> pending_opc_;
};

}  // namespace crve::verif

#include "verif/coverage.h"

#include <algorithm>
#include <stdexcept>

#include "stbus/packet.h"

namespace crve::verif {

// ---------------------------------------------------------------------------
// Coverpoint / Cross
// ---------------------------------------------------------------------------

Coverpoint::Coverpoint(std::string name, std::vector<Bin> bins)
    : name_(std::move(name)), bins_(std::move(bins)) {
  if (bins_.empty()) throw std::invalid_argument("Coverpoint: no bins");
  std::uint64_t top = 0;
  for (const auto& b : bins_) top = std::max(top, b.hi);
  index_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(top, 255) + 1));
  for (std::size_t v = 0; v < index_.size(); ++v) {
    index_[v] = static_cast<std::int16_t>(search(v));
  }
}

Coverpoint Coverpoint::identity(std::string name, int n) {
  std::vector<Bin> bins;
  bins.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto v = static_cast<std::uint64_t>(i);
    bins.push_back({std::to_string(i), v, v, 0});
  }
  return Coverpoint(std::move(name), std::move(bins));
}

int Coverpoint::search(std::uint64_t v) const {
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (v >= bins_[i].lo && v <= bins_[i].hi) return static_cast<int>(i);
  }
  return -1;
}

int Coverpoint::bins_hit() const {
  int n = 0;
  for (const auto& b : bins_) n += b.hits > 0 ? 1 : 0;
  return n;
}

double Coverpoint::percent() const {
  return 100.0 * bins_hit() / num_bins();
}

Cross::Cross(std::string name, const Coverpoint& a, const Coverpoint& b)
    : name_(std::move(name)),
      a_(a),
      b_(b),
      na_(a.num_bins()),
      nb_(b.num_bins()),
      hits_(static_cast<std::size_t>(na_ * nb_), 0) {}

int Cross::bins_hit() const {
  int n = 0;
  for (auto h : hits_) n += h > 0 ? 1 : 0;
  return n;
}

double Cross::percent() const { return 100.0 * bins_hit() / num_bins(); }

// ---------------------------------------------------------------------------
// StbusCoverage
// ---------------------------------------------------------------------------

namespace {

std::vector<Bin> size_bins() {
  std::vector<Bin> bins;
  for (int s = 1; s <= 64; s *= 2) {
    bins.push_back({std::to_string(s) + "B", static_cast<std::uint64_t>(s),
                    static_cast<std::uint64_t>(s), 0});
  }
  return bins;
}

std::vector<Bin> depth_bins() {
  std::vector<Bin> bins;
  for (int d = 0; d < 7; ++d) {
    bins.push_back({std::to_string(d), static_cast<std::uint64_t>(d),
                    static_cast<std::uint64_t>(d), 0});
  }
  bins.push_back({"7+", 7, ~std::uint64_t{0}, 0});
  return bins;
}

}  // namespace

StbusCoverage::StbusCoverage(const stbus::NodeConfig& cfg)
    : cfg_(cfg),
      opcode_(Coverpoint::identity("opcode", stbus::kNumOpcodes)),
      size_("size", size_bins()),
      initiator_(Coverpoint::identity("initiator", cfg.n_initiators)),
      target_(Coverpoint::identity("target", cfg.n_targets + 1)),
      chunked_(Coverpoint::identity("chunked", 2)),
      status_(Coverpoint::identity("rsp_status", 2)),
      outstanding_("outstanding", depth_bins()),
      opcode_x_target_("opcode_x_target", opcode_, target_),
      initiator_x_target_("initiator_x_target", initiator_, target_),
      status_x_opcode_("status_x_opcode", status_, opcode_),
      in_flight_(static_cast<std::size_t>(cfg.n_initiators), 0),
      pending_opc_(static_cast<std::size_t>(cfg.n_initiators),
                   std::vector<int>(256, -1)) {
  cfg_.validate_and_normalize();
}

void StbusCoverage::sample_request(int initiator, const ObservedRequest& pkt) {
  const auto& head = pkt.cells.front();
  const int routed = cfg_.route(head.add);
  // Each value's bin is looked up once and shared with the crosses.
  const int opc = opcode_.bin_of(static_cast<std::uint64_t>(head.opc));
  // Decode errors land in the extra "error" bin (index n_targets).
  const int tgt = target_.bin_of(
      static_cast<std::uint64_t>(routed < 0 ? cfg_.n_targets : routed));
  const int init = initiator_.bin_of(static_cast<std::uint64_t>(initiator));
  opcode_.hit(opc);
  size_.hit(
      size_.bin_of(static_cast<std::uint64_t>(stbus::size_bytes(head.opc))));
  initiator_.hit(init);
  target_.hit(tgt);
  chunked_.hit(chunked_.bin_of(pkt.cells.back().lck ? 1 : 0));
  outstanding_.hit(outstanding_.bin_of(static_cast<std::uint64_t>(
      in_flight_[static_cast<std::size_t>(initiator)])));
  opcode_x_target_.hit(opc, tgt);
  initiator_x_target_.hit(init, tgt);
  ++in_flight_[static_cast<std::size_t>(initiator)];
  pending_opc_[static_cast<std::size_t>(initiator)][head.tid] =
      static_cast<int>(head.opc);
}

void StbusCoverage::sample_response(int initiator,
                                    const ObservedResponse& pkt) {
  bool any_error = false;
  for (const auto& c : pkt.cells) {
    if (c.opc != stbus::RspOpcode::kOk) any_error = true;
  }
  status_.sample(any_error ? 1 : 0);
  // The response does not carry the opcode; recover it from the request
  // bookkeeping by (initiator, tid) — works for in-order Type2 (tid 0, one
  // packet at a time per tid) and out-of-order Type3 alike.
  const std::uint8_t tid = pkt.cells.front().tid;
  int& slot = pending_opc_[static_cast<std::size_t>(initiator)][tid];
  if (slot >= 0) {
    status_x_opcode_.sample(any_error ? 1 : 0,
                            static_cast<std::uint64_t>(slot));
    slot = -1;
  }
  auto& f = in_flight_[static_cast<std::size_t>(initiator)];
  if (f > 0) --f;
}

CoverageReport StbusCoverage::report() const {
  CoverageReport r;
  auto add_point = [&r](const std::string& name, int hit, int total) {
    r.items.push_back({name, hit, total,
                       total > 0 ? 100.0 * hit / total : 100.0});
    r.hit += hit;
    r.total += total;
  };
  add_point(opcode_.name(), opcode_.bins_hit(), opcode_.num_bins());
  add_point(size_.name(), size_.bins_hit(), size_.num_bins());
  add_point(initiator_.name(), initiator_.bins_hit(), initiator_.num_bins());
  add_point(target_.name(), target_.bins_hit(), target_.num_bins());
  add_point(chunked_.name(), chunked_.bins_hit(), chunked_.num_bins());
  add_point(status_.name(), status_.bins_hit(), status_.num_bins());
  add_point(outstanding_.name(), outstanding_.bins_hit(),
            outstanding_.num_bins());
  add_point(opcode_x_target_.name(), opcode_x_target_.bins_hit(),
            opcode_x_target_.num_bins());
  add_point(initiator_x_target_.name(), initiator_x_target_.bins_hit(),
            initiator_x_target_.num_bins());
  add_point(status_x_opcode_.name(), status_x_opcode_.bins_hit(),
            status_x_opcode_.num_bins());
  r.percent = r.total > 0 ? 100.0 * r.hit / r.total : 100.0;
  return r;
}

int StbusCoverage::bins_hit() const { return report().hit; }
int StbusCoverage::bins_total() const { return report().total; }

namespace {
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}
}  // namespace

std::uint64_t StbusCoverage::digest() const {
  std::uint64_t h = 0;
  auto mix_point = [&h](const Coverpoint& p) {
    for (const auto& b : p.bins()) mix(h, b.hits);
  };
  mix_point(opcode_);
  mix_point(size_);
  mix_point(initiator_);
  mix_point(target_);
  mix_point(chunked_);
  mix_point(status_);
  mix_point(outstanding_);
  auto mix_cross = [&h](const Cross& c, int na, int nb) {
    for (int a = 0; a < na; ++a) {
      for (int b = 0; b < nb; ++b) mix(h, c.hits(a, b));
    }
  };
  mix_cross(opcode_x_target_, stbus::kNumOpcodes, cfg_.n_targets + 1);
  mix_cross(initiator_x_target_, cfg_.n_initiators, cfg_.n_targets + 1);
  mix_cross(status_x_opcode_, 2, stbus::kNumOpcodes);
  return h;
}

void StbusCoverage::merge(const StbusCoverage& other) {
  // Shape check via total bins; hit counts are merged bin-by-bin.
  if (bins_total() != other.bins_total()) {
    throw std::invalid_argument("StbusCoverage::merge: shape mismatch");
  }
  auto merge_point = [](Coverpoint& a, const Coverpoint& b) {
    for (int i = 0; i < a.num_bins(); ++i) {
      a.add_hits(i, b.bins()[static_cast<std::size_t>(i)].hits);
    }
  };
  merge_point(opcode_, other.opcode_);
  merge_point(size_, other.size_);
  merge_point(initiator_, other.initiator_);
  merge_point(target_, other.target_);
  merge_point(chunked_, other.chunked_);
  merge_point(status_, other.status_);
  merge_point(outstanding_, other.outstanding_);
  auto merge_cross = [](Cross& a, const Cross& b, int na, int nb) {
    for (int x = 0; x < na; ++x) {
      for (int y = 0; y < nb; ++y) a.add_hits(x, y, b.hits(x, y));
    }
  };
  merge_cross(opcode_x_target_, other.opcode_x_target_, stbus::kNumOpcodes,
              cfg_.n_targets + 1);
  merge_cross(initiator_x_target_, other.initiator_x_target_,
              cfg_.n_initiators, cfg_.n_targets + 1);
  merge_cross(status_x_opcode_, other.status_x_opcode_, 2,
              stbus::kNumOpcodes);
}

}  // namespace crve::verif

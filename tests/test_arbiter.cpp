// Unit tests for the RTL arbitration policy engine, plus differential tests
// proving the BCA view's independently implemented ArbState makes identical
// decisions (the node-level alignment depends on it), and an oracle test of
// ArbState's mask scans against a candidate-sorting reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "bca/node.h"
#include "common/rng.h"
#include "rtl/arbiter.h"

namespace crve {
namespace {

using rtl::Arbiter;
using stbus::ArbPolicy;
using stbus::NodeConfig;

NodeConfig cfg_with(ArbPolicy p, int n = 4) {
  NodeConfig cfg;
  cfg.n_initiators = n;
  cfg.n_targets = 2;
  cfg.arb = p;
  cfg.validate_and_normalize();
  return cfg;
}

TEST(Arbiter, EmptyMaskPicksNobody) {
  Arbiter a(cfg_with(ArbPolicy::kFixedPriority), 0);
  EXPECT_EQ(a.pick(0), -1);
}

TEST(Arbiter, FixedPriorityHighestWins) {
  NodeConfig cfg = cfg_with(ArbPolicy::kFixedPriority);
  cfg.priorities = {1, 9, 3, 9};
  Arbiter a(cfg, 0);
  EXPECT_EQ(a.pick(0b1111), 1);  // tie between 1 and 3 -> lower index
  EXPECT_EQ(a.pick(0b1101), 3);
  EXPECT_EQ(a.pick(0b0101), 2);
  EXPECT_EQ(a.pick(0b0001), 0);
}

TEST(Arbiter, RoundRobinRotates) {
  Arbiter a(cfg_with(ArbPolicy::kRoundRobin), 0);
  EXPECT_EQ(a.pick(0b1111), 0);
  a.on_edge(1, 0, 0b1111);
  EXPECT_EQ(a.pick(0b1111), 1);
  a.on_edge(2, 1, 0b1111);
  EXPECT_EQ(a.pick(0b1111), 2);
  a.on_edge(3, 2, 0b1111);
  // Pointer at 3; only 0 and 1 request -> wraps to 0.
  EXPECT_EQ(a.pick(0b0011), 0);
}

TEST(Arbiter, LruLeastRecentWins) {
  Arbiter a(cfg_with(ArbPolicy::kLru), 0);
  // Initially index order; grant 0, then 0 becomes most recent.
  EXPECT_EQ(a.pick(0b1111), 0);
  a.on_edge(1, 0, 0b1111);
  EXPECT_EQ(a.pick(0b1111), 1);
  a.on_edge(2, 1, 0b1111);
  EXPECT_EQ(a.pick(0b0011), 0);  // among {0,1}, 0 is older now
  a.on_edge(3, 0, 0b0011);
  EXPECT_EQ(a.pick(0b0011), 1);
}

TEST(Arbiter, LatencyUrgencyGrowsWithWaiting) {
  NodeConfig cfg = cfg_with(ArbPolicy::kLatencyBased, 2);
  cfg.latency_deadline = {4, 2};  // initiator 1 has the tighter deadline
  Arbiter a(cfg, 0);
  // Nobody has waited: urgency -4 vs -2, so 1 wins.
  EXPECT_EQ(a.pick(0b11), 1);
  // Serve 1 repeatedly; 0 keeps waiting and its urgency overtakes.
  for (int c = 1; c <= 4; ++c) {
    a.on_edge(static_cast<std::uint64_t>(c), 1, 0b11);
  }
  // waited(0)=4 -> urgency 0; waited(1)=0 -> urgency -2.
  EXPECT_EQ(a.pick(0b11), 0);
}

TEST(Arbiter, BandwidthQuotaExhausts) {
  NodeConfig cfg = cfg_with(ArbPolicy::kBandwidthLimited, 2);
  cfg.bandwidth_quota = {2, 0};  // initiator 0 limited to 2 grants/window
  cfg.bandwidth_window = 100;
  Arbiter a(cfg, 0);
  // Scan pointer starts at 0: 0 wins while it has tokens.
  EXPECT_EQ(a.pick(0b11), 0);
  a.on_edge(1, 0, 0b11);
  // Pointer moved to 1; 1 is unlimited.
  EXPECT_EQ(a.pick(0b11), 1);
  a.on_edge(2, 1, 0b11);
  EXPECT_EQ(a.pick(0b11), 0);  // second token
  a.on_edge(3, 0, 0b11);
  // Tokens exhausted for 0: 1 wins even when the pointer favours 0.
  EXPECT_EQ(a.pick(0b11), 1);
  a.on_edge(4, 1, 0b11);
  EXPECT_EQ(a.pick(0b11), 1);
  // Work conserving: 0 alone still granted without tokens.
  EXPECT_EQ(a.pick(0b01), 0);
}

TEST(Arbiter, BandwidthWindowRefills) {
  NodeConfig cfg = cfg_with(ArbPolicy::kBandwidthLimited, 2);
  cfg.bandwidth_quota = {1, 0};
  cfg.bandwidth_window = 4;
  Arbiter a(cfg, 0);
  EXPECT_EQ(a.pick(0b11), 0);  // pointer 0, token available
  a.on_edge(1, 0, 0b11);       // token spent, pointer -> 1
  EXPECT_EQ(a.pick(0b11), 1);  // 0 out of tokens
  a.on_edge(2, 1, 0b11);       // pointer -> 0
  EXPECT_EQ(a.pick(0b11), 1);  // still out of tokens, pool = {1}
  a.on_edge(3, 1, 0b11);       // pointer -> 0
  a.on_edge(4, -1, 0);         // cycle 4 % 4 == 0 -> refill
  EXPECT_EQ(a.pick(0b11), 0);  // token restored, pointer favours 0
}

TEST(Arbiter, ProgrammablePriorityUpdates) {
  Arbiter a(cfg_with(ArbPolicy::kProgrammable), 0);
  // Default priorities = index, so 3 wins.
  EXPECT_EQ(a.pick(0b1111), 3);
  a.set_priority(0, 50);
  EXPECT_EQ(a.pick(0b1111), 0);
  EXPECT_EQ(a.priority(0), 50);
  EXPECT_THROW(a.set_priority(7, 1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Differential: rtl::Arbiter vs bca::ArbState under random request streams.
// ---------------------------------------------------------------------------

class ArbDifferential : public ::testing::TestWithParam<ArbPolicy> {};

TEST_P(ArbDifferential, IdenticalDecisionsUnderRandomTraffic) {
  NodeConfig cfg;
  cfg.n_initiators = 5;
  cfg.n_targets = 2;
  cfg.arb = GetParam();
  cfg.priorities = {3, 1, 4, 1, 5};
  cfg.latency_deadline = {4, 8, 12, 16, 20};
  cfg.bandwidth_quota = {3, 0, 2, 0, 1};
  cfg.bandwidth_window = 16;
  cfg.validate_and_normalize();

  Arbiter rtl_arb(cfg, 0);
  bca::ArbState bca_arb(cfg);
  bca::Faults no_faults;
  Rng rng(GetParam() == ArbPolicy::kLru ? 77 : 78);

  for (std::uint64_t cycle = 1; cycle <= 2000; ++cycle) {
    const auto mask = static_cast<std::uint32_t>(rng.range(0, 31));
    const int a = rtl_arb.pick(mask);
    const int b = bca_arb.choose(mask);
    ASSERT_EQ(a, b) << "policy " << to_string(GetParam()) << " cycle "
                    << cycle << " mask " << mask;
    const bool locks = rng.chance(1, 4);
    rtl_arb.on_edge(cycle, a, mask);
    bca_arb.update(cycle, b, mask, locks, no_faults);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ArbDifferential,
    ::testing::Values(ArbPolicy::kFixedPriority, ArbPolicy::kRoundRobin,
                      ArbPolicy::kLru, ArbPolicy::kLatencyBased,
                      ArbPolicy::kBandwidthLimited, ArbPolicy::kProgrammable));

TEST(ArbDifferentialFault, LruStaleOnChunkDiverges) {
  NodeConfig cfg = cfg_with(ArbPolicy::kLru, 4);
  Arbiter rtl_arb(cfg, 0);
  bca::ArbState bca_arb(cfg);
  bca::Faults faults;
  faults.lru_stale_on_chunk = true;
  Rng rng(5);
  bool diverged = false;
  for (std::uint64_t cycle = 1; cycle <= 500 && !diverged; ++cycle) {
    const auto mask = static_cast<std::uint32_t>(rng.range(1, 15));
    const int a = rtl_arb.pick(mask);
    const int b = bca_arb.choose(mask);
    if (a != b) {
      diverged = true;
      break;
    }
    rtl_arb.on_edge(cycle, a, mask);
    bca_arb.update(cycle, b, mask, /*locks=*/true, faults);
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Oracle: bca::ArbState's mask scans vs the candidate-sorting formulation
// they replaced, kept here as the reference.
// ---------------------------------------------------------------------------

// Reference ArbState: builds the candidate list and sorts or min-scans it.
// update() mirrors bca::ArbState::update so both see the same state.
class RefArbState {
 public:
  explicit RefArbState(const NodeConfig& cfg)
      : policy_(cfg.arb),
        n_(cfg.n_initiators),
        prio_(cfg.priorities),
        waited_(static_cast<std::size_t>(cfg.n_initiators), 0),
        deadline_(cfg.latency_deadline),
        tokens_(cfg.bandwidth_quota),
        quota_(cfg.bandwidth_quota),
        window_(cfg.bandwidth_window) {
    for (int i = 0; i < n_; ++i) lru_order_.push_back(i);
  }

  int choose(std::uint32_t eligible) const {
    if (eligible == 0) return -1;
    std::vector<int> cand;
    for (int i = 0; i < n_; ++i) {
      if ((eligible >> i) & 1u) cand.push_back(i);
    }
    auto rr_distance = [this](int i) { return (i - next_ptr_ + n_) % n_; };
    auto at = [](const std::vector<int>& v, int i) {
      return v[static_cast<std::size_t>(i)];
    };
    switch (policy_) {
      case ArbPolicy::kFixedPriority:
      case ArbPolicy::kProgrammable:
        std::stable_sort(cand.begin(), cand.end(), [&](int a, int b) {
          return at(prio_, a) > at(prio_, b);
        });
        return cand.front();
      case ArbPolicy::kRoundRobin:
        return *std::min_element(cand.begin(), cand.end(), [&](int a, int b) {
          return rr_distance(a) < rr_distance(b);
        });
      case ArbPolicy::kLru:
        for (int i : lru_order_) {
          if ((eligible >> i) & 1u) return i;
        }
        return -1;
      case ArbPolicy::kLatencyBased: {
        int best = cand.front();
        long best_u =
            static_cast<long>(at(waited_, best)) - at(deadline_, best);
        for (int i : cand) {
          const long u = static_cast<long>(at(waited_, i)) - at(deadline_, i);
          if (u > best_u) {
            best = i;
            best_u = u;
          }
        }
        return best;
      }
      case ArbPolicy::kBandwidthLimited: {
        std::vector<int> pool;
        for (int i : cand) {
          if (at(quota_, i) == 0 || at(tokens_, i) > 0) pool.push_back(i);
        }
        if (pool.empty()) pool = cand;
        return *std::min_element(pool.begin(), pool.end(), [&](int a, int b) {
          return rr_distance(a) < rr_distance(b);
        });
      }
    }
    return -1;
  }

  void update(std::uint64_t next_cycle, int granted, std::uint32_t requesting,
              bool holds_allocation, const bca::Faults& faults) {
    for (int i = 0; i < n_; ++i) {
      auto& w = waited_[static_cast<std::size_t>(i)];
      w = (((requesting >> i) & 1u) && i != granted) ? w + 1 : 0;
    }
    if (granted >= 0) {
      if (!(faults.lru_stale_on_chunk && holds_allocation)) {
        lru_order_.remove(granted);
        lru_order_.push_back(granted);
      }
      next_ptr_ = (granted + 1) % n_;
      auto& t = tokens_[static_cast<std::size_t>(granted)];
      if (quota_[static_cast<std::size_t>(granted)] > 0 && t > 0) --t;
    }
    if (window_ > 0 && next_cycle % static_cast<std::uint64_t>(window_) == 0) {
      tokens_ = quota_;
    }
  }

  void write_priority(int initiator, int value) {
    prio_[static_cast<std::size_t>(initiator)] = value;
  }

 private:
  ArbPolicy policy_;
  int n_;
  std::vector<int> prio_;
  std::list<int> lru_order_;
  int next_ptr_ = 0;
  std::vector<int> waited_;
  std::vector<int> deadline_;
  std::vector<int> tokens_;
  std::vector<int> quota_;
  int window_;
};

class ArbStateOracle : public ::testing::TestWithParam<ArbPolicy> {};

TEST_P(ArbStateOracle, MaskScanMatchesSortingReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  for (int trial = 0; trial < 40; ++trial) {
    // Random shape: small priority and deadline ranges force ties, small
    // quotas and windows cycle the tokens through empty and refilled.
    NodeConfig cfg;
    cfg.n_initiators = static_cast<int>(rng.range(1, 8));
    cfg.n_targets = 2;
    cfg.arb = GetParam();
    const auto n = static_cast<std::size_t>(cfg.n_initiators);
    cfg.priorities.resize(n);
    cfg.latency_deadline.resize(n);
    cfg.bandwidth_quota.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cfg.priorities[i] = static_cast<int>(rng.range(0, 3));
      cfg.latency_deadline[i] = static_cast<int>(rng.range(1, 6));
      cfg.bandwidth_quota[i] = static_cast<int>(rng.range(0, 3));
    }
    cfg.bandwidth_window = static_cast<int>(rng.range(4, 12));
    cfg.validate_and_normalize();
    bca::Faults faults;
    faults.lru_stale_on_chunk = rng.chance(1, 2);

    bca::ArbState arb(cfg);
    RefArbState ref(cfg);
    const std::uint64_t all = (std::uint64_t{1} << n) - 1;
    for (std::uint64_t cycle = 1; cycle <= 300; ++cycle) {
      const auto eligible = static_cast<std::uint32_t>(rng.range(0, all));
      const int want = ref.choose(eligible);
      ASSERT_EQ(arb.choose(eligible), want)
          << "policy " << to_string(GetParam()) << " trial " << trial
          << " cycle " << cycle << " mask " << eligible;
      // Requesters are a superset of the eligible ones; the grant is
      // sometimes withheld (a held allocation), which ages wait counters.
      const auto requesting =
          eligible | static_cast<std::uint32_t>(rng.range(0, all));
      const int granted = rng.chance(3, 4) ? want : -1;
      const bool holds = rng.chance(1, 3);
      arb.update(cycle, granted, requesting, holds, faults);
      ref.update(cycle, granted, requesting, holds, faults);
      if (rng.chance(1, 20)) {
        const int who = static_cast<int>(rng.range(0, n - 1));
        const int prio = static_cast<int>(rng.range(0, 3));
        arb.write_priority(who, prio);
        ref.write_priority(who, prio);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ArbStateOracle,
    ::testing::Values(ArbPolicy::kFixedPriority, ArbPolicy::kRoundRobin,
                      ArbPolicy::kLru, ArbPolicy::kLatencyBased,
                      ArbPolicy::kBandwidthLimited, ArbPolicy::kProgrammable));

}  // namespace
}  // namespace crve

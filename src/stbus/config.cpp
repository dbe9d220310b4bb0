#include "stbus/config.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace crve::stbus {

std::string to_string(ProtocolType t) {
  switch (t) {
    case ProtocolType::kType1:
      return "T1";
    case ProtocolType::kType2:
      return "T2";
    case ProtocolType::kType3:
      return "T3";
  }
  return "?";
}

std::string to_string(Architecture a) {
  switch (a) {
    case Architecture::kSharedBus:
      return "shared";
    case Architecture::kFullCrossbar:
      return "full-xbar";
    case Architecture::kPartialCrossbar:
      return "partial-xbar";
  }
  return "?";
}

std::string to_string(ArbPolicy p) {
  switch (p) {
    case ArbPolicy::kFixedPriority:
      return "fixed-priority";
    case ArbPolicy::kRoundRobin:
      return "round-robin";
    case ArbPolicy::kLru:
      return "lru";
    case ArbPolicy::kLatencyBased:
      return "latency";
    case ArbPolicy::kBandwidthLimited:
      return "bandwidth";
    case ArbPolicy::kProgrammable:
      return "programmable";
  }
  return "?";
}

namespace {
bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }
}  // namespace

void NodeConfig::validate_and_normalize() {
  if (n_initiators < 1 || n_initiators > 32) {
    throw std::invalid_argument("NodeConfig: n_initiators must be 1..32");
  }
  if (n_targets < 1 || n_targets > 32) {
    throw std::invalid_argument("NodeConfig: n_targets must be 1..32");
  }
  if (!is_pow2(bus_bytes) || bus_bytes < 1 || bus_bytes > 32) {
    throw std::invalid_argument(
        "NodeConfig: bus_bytes must be a power of two in 1..32");
  }
  if (type == ProtocolType::kType1) {
    throw std::invalid_argument("NodeConfig: the node supports Type2/Type3");
  }
  if (address_map.empty()) {
    address_map = even_map(n_targets);
  }
  for (const auto& r : address_map) {
    if (r.target < 0 || r.target >= n_targets) {
      throw std::invalid_argument("NodeConfig: address map target out of range");
    }
    if (r.size == 0) {
      throw std::invalid_argument("NodeConfig: empty address range");
    }
  }
  auto fill = [&](std::vector<int>& v, int def_from_index) {
    if (v.empty()) {
      v.resize(static_cast<std::size_t>(n_initiators));
      for (int i = 0; i < n_initiators; ++i) {
        v[static_cast<std::size_t>(i)] = def_from_index >= 0 ? i : 0;
      }
    }
    if (static_cast<int>(v.size()) != n_initiators) {
      throw std::invalid_argument("NodeConfig: per-initiator vector size");
    }
  };
  fill(priorities, /*def_from_index=*/1);
  if (latency_deadline.empty()) {
    latency_deadline.assign(static_cast<std::size_t>(n_initiators), 16);
  }
  if (static_cast<int>(latency_deadline.size()) != n_initiators) {
    throw std::invalid_argument("NodeConfig: latency_deadline size");
  }
  if (bandwidth_quota.empty()) {
    bandwidth_quota.assign(static_cast<std::size_t>(n_initiators), 0);
  }
  if (static_cast<int>(bandwidth_quota.size()) != n_initiators) {
    throw std::invalid_argument("NodeConfig: bandwidth_quota size");
  }
  if (bandwidth_window < 1) {
    throw std::invalid_argument("NodeConfig: bandwidth_window must be >= 1");
  }
  if (arch == Architecture::kPartialCrossbar) {
    if (xbar_group.empty()) {
      // Default grouping: pairs of targets share a resource.
      xbar_group.resize(static_cast<std::size_t>(n_targets));
      for (int t = 0; t < n_targets; ++t) {
        xbar_group[static_cast<std::size_t>(t)] = t / 2;
      }
    }
    if (static_cast<int>(xbar_group.size()) != n_targets) {
      throw std::invalid_argument("NodeConfig: xbar_group size");
    }
    for (int g : xbar_group) {
      if (g < 0 || g >= n_targets) {
        throw std::invalid_argument("NodeConfig: xbar_group id out of range");
      }
    }
    // Remap group ids to a dense 0..k-1 range so they double as resource
    // indices (per-resource state arrays are sized by num_resources()).
    std::set<int> distinct(xbar_group.begin(), xbar_group.end());
    std::vector<int> order(distinct.begin(), distinct.end());
    for (auto& g : xbar_group) {
      g = static_cast<int>(
          std::lower_bound(order.begin(), order.end(), g) - order.begin());
    }
  }
}

std::vector<AddressRange> NodeConfig::even_map(int n_targets,
                                               std::uint32_t base,
                                               std::uint32_t per_target) {
  std::vector<AddressRange> map;
  map.reserve(static_cast<std::size_t>(n_targets));
  for (int t = 0; t < n_targets; ++t) {
    map.push_back({base + static_cast<std::uint32_t>(t) * per_target,
                   per_target, t});
  }
  return map;
}

int NodeConfig::route(std::uint32_t addr) const {
  for (const auto& r : address_map) {
    if (r.contains(addr)) return r.target;
  }
  return -1;
}

int NodeConfig::resource_of_target(int target) const {
  switch (arch) {
    case Architecture::kSharedBus:
      return 0;
    case Architecture::kFullCrossbar:
      return target;
    case Architecture::kPartialCrossbar:
      return xbar_group[static_cast<std::size_t>(target)];
  }
  return 0;
}

int NodeConfig::num_resources() const {
  switch (arch) {
    case Architecture::kSharedBus:
      return 1;
    case Architecture::kFullCrossbar:
      return n_targets;
    case Architecture::kPartialCrossbar: {
      // Distinct group ids, counted in place so the call allocates nothing.
      int groups = 0;
      for (auto g = xbar_group.begin(); g != xbar_group.end(); ++g) {
        groups += std::find(xbar_group.begin(), g, *g) == g ? 1 : 0;
      }
      return groups;
    }
  }
  return 1;
}

std::string NodeConfig::summary() const {
  std::ostringstream os;
  os << name << ": " << to_string(type) << " " << n_initiators << "i x "
     << n_targets << "t, " << bus_bytes * 8 << "-bit, " << to_string(arch)
     << ", " << to_string(arb)
     << (programming_port ? ", prog-port" : "");
  return os.str();
}

}  // namespace crve::stbus

#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "regress/config_file.h"
#include "regress/job_spec.h"
#include "verif/tests.h"

namespace cbench {

namespace fs = std::filesystem;
using crve::stbus::ArbPolicy;
using crve::stbus::Architecture;
using crve::stbus::NodeConfig;
using crve::stbus::ProtocolType;

namespace {

// splitmix64: the benchmark's own stream, so a change to the library RNG
// never changes the generated inputs.
struct SeedStream {
  std::uint64_t x;
  std::uint64_t next() {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }
  std::uint64_t campaign_seed() { return 1 + next() % 1000000; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }
};

const char* arb_tag(ArbPolicy p) {
  switch (p) {
    case ArbPolicy::kFixedPriority: return "fixed";
    case ArbPolicy::kRoundRobin: return "rr";
    case ArbPolicy::kLru: return "lru";
    case ArbPolicy::kLatencyBased: return "latency";
    case ArbPolicy::kBandwidthLimited: return "bw";
    case ArbPolicy::kProgrammable: return "prog";
  }
  return "arb";
}

const char* arch_tag(Architecture a) {
  switch (a) {
    case Architecture::kSharedBus: return "shared";
    case Architecture::kFullCrossbar: return "full";
    case Architecture::kPartialCrossbar: return "partial";
  }
  return "arch";
}

// The paper's C2 matrix: {Type2, Type3} x {shared, full, partial} x the six
// arbitration policies, plus four data-width variants. The shapes are
// fixed; the seed draws the per-policy parameters, which is where configs
// of one shape differ in practice. Every config is generated lint-clean:
// bandwidth arbitration gets a quota, programmable arbitration gets its
// programming port.
std::vector<NodeConfig> c2_matrix(SeedStream& rng) {
  std::vector<NodeConfig> out;
  auto permutation = [&rng](int n) {
    std::vector<int> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
    rng.shuffle(v);
    return v;
  };
  for (auto type : {ProtocolType::kType2, ProtocolType::kType3}) {
    for (auto arch : {Architecture::kSharedBus, Architecture::kFullCrossbar,
                      Architecture::kPartialCrossbar}) {
      for (auto arb : {ArbPolicy::kFixedPriority, ArbPolicy::kRoundRobin,
                       ArbPolicy::kLru, ArbPolicy::kLatencyBased,
                       ArbPolicy::kBandwidthLimited,
                       ArbPolicy::kProgrammable}) {
        NodeConfig cfg;
        cfg.n_initiators = 3;
        cfg.n_targets = 2;
        cfg.bus_bytes = 4;
        cfg.type = type;
        cfg.arch = arch;
        cfg.arb = arb;
        if (arb == ArbPolicy::kFixedPriority ||
            arb == ArbPolicy::kProgrammable) {
          cfg.priorities = permutation(cfg.n_initiators);
        }
        if (arb == ArbPolicy::kLatencyBased) {
          for (int i = 0; i < cfg.n_initiators; ++i) {
            cfg.latency_deadline.push_back(rng.range(4, 32));
          }
        }
        if (arb == ArbPolicy::kBandwidthLimited) {
          for (int i = 0; i < cfg.n_initiators; ++i) {
            cfg.bandwidth_quota.push_back(rng.range(6, 16));
          }
        }
        cfg.programming_port = arb == ArbPolicy::kProgrammable;
        out.push_back(cfg);
      }
    }
  }
  for (int bus : {1, 8, 16, 32}) {
    NodeConfig cfg;
    cfg.n_initiators = 2;
    cfg.n_targets = 2;
    cfg.bus_bytes = bus;
    cfg.type = ProtocolType::kType2;
    cfg.arch = Architecture::kFullCrossbar;
    cfg.arb = rng.range(0, 1) ? ArbPolicy::kLru : ArbPolicy::kRoundRobin;
    out.push_back(cfg);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    NodeConfig& c = out[i];
    std::ostringstream name;
    name << "c2_" << (i < 10 ? "0" : "") << i << "_t"
         << (c.type == ProtocolType::kType2 ? 2 : 3) << "_" << arch_tag(c.arch)
         << "_" << arb_tag(c.arb) << "_w" << c.bus_bytes * 8;
    c.name = name.str();
  }
  return out;
}

// The three shipped configurations (configs/, `crve_regress
// --sample-configs`), reproduced here so the workload does not move when
// the shipped examples are edited.
std::vector<NodeConfig> shipped_configs() {
  NodeConfig a;
  a.name = "node_t2_xbar_lru";
  a.n_initiators = 3;
  a.n_targets = 2;
  a.arb = ArbPolicy::kLru;
  NodeConfig b;
  b.name = "node_t3_shared_latency";
  b.n_initiators = 4;
  b.n_targets = 2;
  b.type = ProtocolType::kType3;
  b.arch = Architecture::kSharedBus;
  b.arb = ArbPolicy::kLatencyBased;
  b.latency_deadline = {4, 8, 16, 32};
  NodeConfig c;
  c.name = "node_t2_wide_prog";
  c.n_initiators = 2;
  c.n_targets = 2;
  c.bus_bytes = 16;
  c.arb = ArbPolicy::kProgrammable;
  c.programming_port = true;
  return {a, b, c};
}

// Bug-hunt slices: two fixed C2 shapes per slice, one Type2 full crossbar
// and one Type3 partial crossbar, each slice with its own arbitration
// policy; the LRU recency bug gets the LRU arbiter it lives in. The seed
// draws the per-policy parameters, so a slice's work stays comparable
// across seeds while its configs differ.
std::vector<NodeConfig> bug_slice(const std::string& slice, ArbPolicy arb,
                                  SeedStream& rng) {
  std::vector<NodeConfig> out;
  for (const NodeConfig& c : c2_matrix(rng)) {
    const bool t2_full = c.type == ProtocolType::kType2 &&
                         c.arch == Architecture::kFullCrossbar;
    const bool t3_partial = c.type == ProtocolType::kType3 &&
                            c.arch == Architecture::kPartialCrossbar;
    if (c.bus_bytes == 4 && c.arb == arb && (t2_full || t3_partial)) {
      out.push_back(c);
      out.back().name = slice + "_" + c.name;
    }
  }
  return out;
}

void write_configs(const std::string& dir,
                   const std::vector<NodeConfig>& configs) {
  fs::create_directories(dir);
  for (const NodeConfig& cfg : configs) {
    std::ofstream os(dir + "/" + cfg.name + ".cfg");
    os << crve::regress::format_config(cfg);
    if (!os) throw std::runtime_error("cannot write " + dir);
  }
}

std::string join(const std::vector<std::uint64_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i]);
  }
  return s;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "signoff_c2" || name == "sparse_functional" ||
         name == "bug_hunt" || name == "warm_rerun";
}

void generate(const std::string& name, std::uint64_t seed,
              const std::string& dir) {
  if (!known_workload(name)) throw std::invalid_argument("workload " + name);
  // warm_rerun replays exactly the signoff_c2 campaign of the same seed.
  const std::string family = name == "warm_rerun" ? "signoff_c2" : name;
  std::uint64_t salt = 0xcbf29ce484222325ull;  // FNV-1a of the family name
  for (char c : family) {
    salt = (salt ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  SeedStream rng{seed ^ salt};
  const std::string inputs = dir + "/inputs";
  std::ostringstream plan;
  plan << "workload = " << name << "\n";
  std::vector<std::uint64_t> seeds;
  if (family == "signoff_c2") {
    write_configs(inputs + "/all", c2_matrix(rng));
    seeds = {rng.campaign_seed()};
    plan << "tx = 60\nmax_cycles = 500000\nslice = all -\n";
  } else if (family == "sparse_functional") {
    write_configs(inputs + "/all", shipped_configs());
    for (int i = 0; i < 4; ++i) seeds.push_back(rng.campaign_seed());
    plan << "tx = 100\nmax_cycles = 500000\nidle_permille = 900\n"
            "fixed_latency = 40\nslice = all -\n";
  } else {  // bug_hunt
    const std::pair<const char*, ArbPolicy> slices[] = {
        {"control", ArbPolicy::kRoundRobin},
        {"lru_stale_on_chunk", ArbPolicy::kLru},
        {"grant_during_lock", ArbPolicy::kFixedPriority},
        {"byte_enable_dropped", ArbPolicy::kLatencyBased},
        {"response_src_swap", ArbPolicy::kRoundRobin},
        {"opcode_corrupt_on_busy", ArbPolicy::kBandwidthLimited},
    };
    plan << "tx = 30\nmax_cycles = 5000\n";
    for (const auto& [slice, arb] : slices) {
      write_configs(inputs + "/" + slice, bug_slice(slice, arb, rng));
      const std::string name = slice;
      plan << "slice = " << name << " " << (name == "control" ? "-" : name)
           << "\n";
    }
    seeds = {rng.campaign_seed()};
  }
  plan << "seeds = " << join(seeds) << "\n";
  std::ofstream os(dir + "/plan.txt");
  os << plan.str();
  if (!os) throw std::runtime_error("cannot write " + dir + "/plan.txt");
}

Workload load(const std::string& dir) {
  std::ifstream is(dir + "/plan.txt");
  if (!is) throw std::runtime_error("no plan.txt in " + dir);
  Workload w;
  w.dir = dir;
  std::string line;
  while (std::getline(is, line)) {
    const auto eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 3);
    if (key == "workload") {
      w.name = val;
    } else if (key == "tx") {
      w.n_transactions = std::stoi(val);
    } else if (key == "max_cycles") {
      w.max_cycles = std::stoull(val);
    } else if (key == "idle_permille") {
      w.idle_permille = std::stoi(val);
    } else if (key == "fixed_latency") {
      w.fixed_latency = std::stoi(val);
    } else if (key == "seeds") {
      std::istringstream ss(val);
      std::string item;
      while (std::getline(ss, item, ',')) w.seeds.push_back(std::stoull(item));
    } else if (key == "slice") {
      std::istringstream ss(val);
      Slice s;
      ss >> s.name >> s.fault;
      if (s.fault == "-") s.fault.clear();
      s.config_dir = dir + "/inputs/" + s.name;
      w.slices.push_back(s);
    }
  }
  if (!known_workload(w.name) || w.slices.empty() || w.seeds.empty()) {
    throw std::runtime_error("malformed plan.txt in " + dir);
  }
  w.alignment = w.name != "sparse_functional";
  w.to_disk = w.name == "bug_hunt";
  w.cold_cache = w.name == "bug_hunt";
  w.warm = w.name == "warm_rerun";
  return w;
}

std::vector<crve::verif::TestSpec> Workload::tests() const {
  std::vector<crve::verif::TestSpec> suite = crve::verif::catg_test_suite();
  if (idle_permille == 0) return suite;
  // Sparse traffic: the CATG opcode and window mixes stay, initiators idle
  // most cycles and targets answer slowly. Renamed so the runner never
  // mistakes them for cacheable suite tests.
  const auto idle = static_cast<std::uint32_t>(idle_permille);
  const int latency = fixed_latency;
  for (auto& spec : suite) {
    spec.name += "_sparse";
    if (spec.profile) {
      spec.profile = [base = spec.profile, idle](
                         const crve::stbus::NodeConfig& cfg, int i) {
        crve::verif::InitiatorProfile p = base(cfg, i);
        p.idle_permille = idle;
        return p;
      };
    }
    spec.target = [base = spec.target, latency](
                      const crve::stbus::NodeConfig& cfg, int t) {
      crve::verif::TargetProfile p =
          base ? base(cfg, t) : crve::verif::TargetProfile{};
      p.fixed_latency = latency;
      return p;
    };
  }
  return suite;
}

crve::regress::RunPlan Workload::base_plan(const Slice& slice) const {
  crve::regress::RunPlan plan;
  plan.tests = tests();
  plan.seeds = seeds;
  plan.n_transactions = n_transactions;
  plan.max_cycles = max_cycles;
  plan.run_alignment = alignment;
  plan.alignment_threshold = 0.99;
  plan.jobs = kJobs;
  plan.run_triage = true;
  if (!slice.fault.empty() &&
      !crve::regress::set_fault_by_name(plan.faults, slice.fault)) {
    throw std::runtime_error("unknown fault " + slice.fault);
  }
  return plan;
}

}  // namespace cbench

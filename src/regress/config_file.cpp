#include "regress/config_file.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace crve::regress {

using stbus::ArbPolicy;
using stbus::Architecture;
using stbus::NodeConfig;
using stbus::ProtocolType;

namespace {

constexpr std::pair<ProtocolType, const char*> kTypeNames[] = {
    {ProtocolType::kType2, "2"}, {ProtocolType::kType3, "3"}};
constexpr std::pair<Architecture, const char*> kArchNames[] = {
    {Architecture::kSharedBus, "shared"},
    {Architecture::kFullCrossbar, "full"},
    {Architecture::kPartialCrossbar, "partial"}};
constexpr std::pair<ArbPolicy, const char*> kArbNames[] = {
    {ArbPolicy::kFixedPriority, "fixed"},
    {ArbPolicy::kRoundRobin, "rr"},
    {ArbPolicy::kLru, "lru"},
    {ArbPolicy::kLatencyBased, "latency"},
    {ArbPolicy::kBandwidthLimited, "bandwidth"},
    {ArbPolicy::kProgrammable, "prog"}};

template <class E, std::size_t N>
const char* name_in(const std::pair<E, const char*> (&names)[N], E e) {
  for (const auto& [value, name] : names) {
    if (value == e) return name;
  }
  return "?";
}

// `miss` words the message for a value outside the table.
template <class E, std::size_t N>
E value_in(const std::pair<E, const char*> (&names)[N], const char* key,
           const char* miss, std::string_view v) {
  std::string accepted;
  for (const auto& [value, name] : names) {
    if (v == name) return value;
    accepted += (accepted.empty() ? "" : ", ") + std::string(name);
  }
  throw std::invalid_argument(std::string(key) + ": " + miss + " '" +
                              std::string(v) + "' (accepted: " + accepted +
                              ")");
}

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

int to_int(const char* key, std::string_view v) {
  if (const auto n = parse_integer<int>(v)) return *n;
  throw std::invalid_argument(std::string(key) + ": bad integer '" +
                              std::string(v) + "'");
}

// Comma-separated integers; empty items are skipped.
std::vector<int> to_int_list(const char* key, std::string_view v) {
  std::vector<int> out;
  for (std::size_t b = 0; b <= v.size();) {
    const std::size_t e = std::min(v.find(',', b), v.size());
    const std::string_view item = trim(v.substr(b, e - b));
    b = e + 1;
    if (item.empty()) continue;
    const auto n = parse_integer<int>(item);
    if (!n) {
      throw std::invalid_argument(std::string(key) + ": bad integer list '" +
                                  std::string(v) + "'");
    }
    out.push_back(*n);
  }
  return out;
}

// Every key of the grammar and how its value is typed into a NodeConfig.
// `set` throws std::invalid_argument with the problem's message when the
// value does not parse; `bad` is that problem's kind.
struct Key {
  const char* name;
  ConfigIssue::Kind bad;
  void (*set)(NodeConfig& c, const char* key, std::string_view v);
};

using V = std::string_view;
const Key kKeys[] = {
    {"name", ConfigIssue::kBadInteger,  // any text is a name
     [](NodeConfig& c, const char*, V v) { c.name = v; }},
    {"n_initiators", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) { c.n_initiators = to_int(k, v); }},
    {"n_targets", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) { c.n_targets = to_int(k, v); }},
    {"bus_bytes", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) { c.bus_bytes = to_int(k, v); }},
    {"type", ConfigIssue::kBadEnum,
     [](NodeConfig& c, const char* k, V v) {
       c.type = value_in(kTypeNames, k, "bad value", v);
     }},
    {"arch", ConfigIssue::kBadEnum,
     [](NodeConfig& c, const char* k, V v) {
       c.arch = value_in(kArchNames, k, "unknown value", v);
     }},
    {"arb", ConfigIssue::kBadEnum,
     [](NodeConfig& c, const char* k, V v) {
       c.arb = value_in(kArbNames, k, "unknown value", v);
     }},
    {"programming_port", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) {
       c.programming_port = to_int(k, v) != 0;
     }},
    {"priorities", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) {
       c.priorities = to_int_list(k, v);
     }},
    {"latency_deadline", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) {
       c.latency_deadline = to_int_list(k, v);
     }},
    {"bandwidth_quota", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) {
       c.bandwidth_quota = to_int_list(k, v);
     }},
    {"bandwidth_window", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) {
       c.bandwidth_window = to_int(k, v);
     }},
    {"xbar_group", ConfigIssue::kBadInteger,
     [](NodeConfig& c, const char* k, V v) {
       c.xbar_group = to_int_list(k, v);
     }},
};
static_assert(std::size(kKeys) == ConfigScan::kKeyCount);

// Index of `key` in kKeys; kKeyCount when it is not a key of the grammar.
std::size_t key_index(std::string_view key) {
  std::size_t i = 0;
  while (i < std::size(kKeys) && key != kKeys[i].name) ++i;
  return i;
}

}  // namespace

const char* config_name(ProtocolType t) { return name_in(kTypeNames, t); }
const char* config_name(Architecture a) { return name_in(kArchNames, a); }
const char* config_name(ArbPolicy p) { return name_in(kArbNames, p); }

int ConfigScan::line(std::string_view key) const {
  const std::size_t i = key_index(key);
  return i < kKeyCount ? lines[i] : 0;
}

ConfigScan scan_config(std::istream& is) {
  ConfigScan scan;
  int assigned[ConfigScan::kKeyCount] = {};  // last line, parsed or not
  std::string text;
  int lineno = 0;
  auto issue = [&](ConfigIssue::Kind kind, std::string message) {
    scan.issues.push_back({kind, lineno, std::move(message)});
  };
  while (std::getline(is, text)) {
    ++lineno;
    // Both comment styles, whole-line or trailing (see config_file.h).
    std::string_view line = text;
    line = line.substr(0, line.find('#'));
    line = trim(line.substr(0, line.find("//")));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      issue(ConfigIssue::kNotKeyValue,
            "expected key=value, got '" + std::string(line) + "'");
      continue;
    }
    const std::string_view key = trim(line.substr(0, eq));
    if (key.empty()) {
      issue(ConfigIssue::kNotKeyValue, "empty key before '='");
      continue;
    }
    const std::size_t k = key_index(key);
    if (k == ConfigScan::kKeyCount) {
      issue(ConfigIssue::kUnknownKey,
            "unknown key '" + std::string(key) + "'");
      continue;
    }
    if (assigned[k]) {
      issue(ConfigIssue::kDuplicateKey,
            "'" + std::string(key) + "' already set on line " +
                std::to_string(assigned[k]) +
                "; the earlier value is shadowed");
    }
    assigned[k] = lineno;
    try {
      kKeys[k].set(scan.cfg, kKeys[k].name, trim(line.substr(eq + 1)));
      scan.lines[k] = lineno;
    } catch (const std::invalid_argument& e) {
      issue(kKeys[k].bad, e.what());
      scan.lines[k] = 0;
    }
  }
  return scan;
}

NodeConfig parse_config(std::istream& is, const std::string& origin) {
  ConfigScan scan = scan_config(is);
  for (const ConfigIssue& i : scan.issues) {
    if (i.kind != ConfigIssue::kDuplicateKey) {
      throw std::invalid_argument(origin + ":" + std::to_string(i.line) +
                                  ": " + i.message);
    }
  }
  try {
    scan.cfg.validate_and_normalize();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(origin + ": " + e.what());
  }
  return std::move(scan.cfg);
}

NodeConfig parse_config_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::invalid_argument("config: cannot open " + path);
  return parse_config(is, path);
}

std::string format_config(const stbus::NodeConfig& cfg) {
  std::ostringstream os;
  os << "name = " << cfg.name << "\n";
  os << "n_initiators = " << cfg.n_initiators << "\n";
  os << "n_targets = " << cfg.n_targets << "\n";
  os << "bus_bytes = " << cfg.bus_bytes << "\n";
  os << "type = " << config_name(cfg.type) << "\n";
  os << "arch = " << config_name(cfg.arch) << "\n";
  os << "arb = " << config_name(cfg.arb) << "\n";
  os << "programming_port = " << (cfg.programming_port ? 1 : 0) << "\n";
  auto list = [&os](const char* key, const std::vector<int>& v) {
    if (v.empty()) return;
    os << key << " = ";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i ? "," : "") << v[i];
    }
    os << "\n";
  };
  list("priorities", cfg.priorities);
  list("latency_deadline", cfg.latency_deadline);
  list("bandwidth_quota", cfg.bandwidth_quota);
  os << "bandwidth_window = " << cfg.bandwidth_window << "\n";
  list("xbar_group", cfg.xbar_group);
  return os.str();
}

std::vector<std::string> config_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code stat_ec;  // an entry that cannot be stat'ed is skipped
    if (it->is_regular_file(stat_ec) && it->path().extension() == ".cfg") {
      files.push_back(it->path().string());
    }
  }
  if (ec) {
    throw std::invalid_argument("cannot list config directory " + dir +
                                ": " + ec.message());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<stbus::NodeConfig> configs_from_dir(const std::string& dir) {
  std::vector<stbus::NodeConfig> out;
  for (const auto& f : config_files(dir)) out.push_back(parse_config_file(f));
  return out;
}

}  // namespace crve::regress

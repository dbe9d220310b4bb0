// Config / campaign rule family (CRVE001..CRVE042).
//
// Config texts are read through the parser's own scanner
// (regress::scan_config), so the grammar exists once: every problem the
// scanner finds becomes its CRVE001..005 finding, and the semantic rules
// (CRVE010..021) run over the typed values and the line each key came from.
// The pass is tolerant where parse_config throws — it collects every problem
// of every file instead of stopping at the first, so one lint run over a
// directory reports everything a campaign would trip over. A config that
// lints without a finding parses, and one the parser rejects gets an error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/json.h"
#include "lint/lint.h"
#include "regress/config_file.h"

namespace crve::lint {

namespace {

using regress::ConfigScan;
using stbus::ArbPolicy;

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

void check_port_count(Report& out, const std::string& origin, int line,
                      const char* key, const char* rule, int v,
                      bool& valid) {
  if (v < 1 || v > 32) {
    out.add(rule, origin, line,
            std::string(key) + " = " + std::to_string(v) +
                " outside the paper's 1..32 port limit");
    valid = false;
  }
}

// The semantic pass (CRVE010..CRVE021). A list key counts as given when
// the scan holds a line for it.
void lint_semantics(const ConfigScan& s, const std::string& origin,
                    Report& out) {
  const stbus::NodeConfig& c = s.cfg;
  bool ports_valid = true;
  check_port_count(out, origin, s.line("n_initiators"), "n_initiators",
                   "CRVE010", c.n_initiators, ports_valid);
  check_port_count(out, origin, s.line("n_targets"), "n_targets", "CRVE011",
                   c.n_targets, ports_valid);
  if (!is_pow2(c.bus_bytes) || c.bus_bytes > 32) {
    out.add("CRVE012", origin, s.line("bus_bytes"),
            "bus_bytes = " + std::to_string(c.bus_bytes) +
                " must be a power of two in 1..32 (8..256 bits)");
  }

  auto check_list = [&](const char* key, const std::vector<int>& list) {
    if (!s.line(key) || !ports_valid) return;
    if (static_cast<int>(list.size()) != c.n_initiators) {
      out.add("CRVE014", origin, s.line(key),
              std::string(key) + " has " + std::to_string(list.size()) +
                  " entries for " + std::to_string(c.n_initiators) +
                  " initiators");
    }
  };
  check_list("priorities", c.priorities);
  check_list("latency_deadline", c.latency_deadline);
  check_list("bandwidth_quota", c.bandwidth_quota);

  const std::string arb = regress::config_name(c.arb);
  const int arb_line = s.line("arb");
  const int deadline_line = s.line("latency_deadline");
  if (c.arb == ArbPolicy::kLatencyBased) {
    if (!deadline_line) {
      out.add("CRVE013", origin, arb_line,
              "arb = latency needs a latency_deadline list (one deadline "
              "per initiator); without it every initiator gets the default "
              "16 and the policy degenerates");
    } else {
      for (std::size_t i = 0; i < c.latency_deadline.size(); ++i) {
        if (c.latency_deadline[i] <= 0) {
          out.add("CRVE021", origin, deadline_line,
                  "latency_deadline[" + std::to_string(i) + "] = " +
                      std::to_string(c.latency_deadline[i]) +
                      " is not a positive cycle count");
        }
      }
    }
  } else if (deadline_line) {
    out.add("CRVE020", origin, deadline_line,
            "latency_deadline is ignored unless arb = latency (arb = " + arb +
                ")");
  }

  const int quota_line = s.line("bandwidth_quota");
  if (c.arb == ArbPolicy::kBandwidthLimited) {
    if (!quota_line) {
      out.add("CRVE015", origin, arb_line,
              "arb = bandwidth needs a bandwidth_quota list (grants per "
              "window, 0 = unlimited)");
    }
  } else if (quota_line) {
    out.add("CRVE020", origin, quota_line,
            "bandwidth_quota is ignored unless arb = bandwidth (arb = " +
                arb + ")");
  }
  // validate_and_normalize rejects the window under every policy.
  if (c.bandwidth_window < 1) {
    out.add("CRVE015", origin, s.line("bandwidth_window"),
            "bandwidth_window = " + std::to_string(c.bandwidth_window) +
                " must be >= 1");
  }

  if (c.arb == ArbPolicy::kProgrammable && !c.programming_port) {
    out.add("CRVE016", origin, arb_line,
            "arb = prog needs programming_port = 1: the programmable "
            "priorities live in the Type1 programming-port registers");
  }

  const int group_line = s.line("xbar_group");
  if (!group_line) return;
  if (c.arch != stbus::Architecture::kPartialCrossbar) {
    out.add("CRVE020", origin, group_line,
            "xbar_group is ignored unless arch = partial (arch = " +
                std::string(regress::config_name(c.arch)) + ")");
    return;
  }
  if (!ports_valid) return;
  const auto& groups = c.xbar_group;
  if (static_cast<int>(groups.size()) != c.n_targets) {
    out.add("CRVE017", origin, group_line,
            "xbar_group has " + std::to_string(groups.size()) +
                " entries for " + std::to_string(c.n_targets) + " targets");
    return;
  }
  int max_used = -1;
  for (std::size_t t = 0; t < groups.size(); ++t) {
    if (groups[t] < 0 || groups[t] >= c.n_targets) {
      out.add("CRVE018", origin, group_line,
              "xbar_group[" + std::to_string(t) + "] = " +
                  std::to_string(groups[t]) + " outside 0.." +
                  std::to_string(c.n_targets - 1));
    } else {
      max_used = std::max(max_used, groups[t]);
    }
  }
  const std::set<int> used(groups.begin(), groups.end());
  for (int g = 0; g <= max_used; ++g) {
    if (!used.count(g)) {
      out.add("CRVE019", origin, group_line,
              "group " + std::to_string(g) +
                  " is empty; ids are remapped densely, so the declared "
                  "grouping is not what will run");
    }
  }
}

// The scan's problems as CRVE001..005 findings plus the semantic pass.
Report lint_scan(const ConfigScan& s, const std::string& origin) {
  static const char* const kIssueRule[] = {"CRVE001", "CRVE002", "CRVE003",
                                           "CRVE004", "CRVE005"};
  Report out;
  for (const auto& i : s.issues) {
    out.add(kIssueRule[i.kind], origin, i.line, i.message);
  }
  lint_semantics(s, origin, out);
  out.sort();
  return out;
}

}  // namespace

Report lint_config_text(const std::string& text, const std::string& origin) {
  std::istringstream is(text);
  return lint_scan(regress::scan_config(is), origin);
}

Report lint_config_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    Report out;
    out.add("CRVE001", path, 0, "cannot open file");
    return out;
  }
  return lint_scan(regress::scan_config(is), path);
}

Report lint_config_dir(const std::string& dir) {
  Report out;
  std::vector<std::string> files;
  try {
    files = regress::config_files(dir);
  } catch (const std::invalid_argument& e) {
    out.add("CRVE001", dir, 0, e.what());
    return out;
  }
  if (files.empty()) {
    out.add("CRVE031", dir, 0, "no .cfg files found");
    return out;
  }
  // name -> first file that used it. The name keys artifact directories and
  // report sections, so a duplicate silently merges two configurations.
  std::map<std::string, std::string> names;
  for (const auto& f : files) {
    std::ifstream is(f);
    if (!is) {
      out.add("CRVE001", f, 0, "cannot open file");
      continue;
    }
    const ConfigScan scan = regress::scan_config(is);
    out.merge(lint_scan(scan, f));
    const auto [it, inserted] = names.insert({scan.cfg.name, f});
    if (!inserted) {
      out.add("CRVE030", f, scan.line("name"),
              "name '" + scan.cfg.name + "' already used by " + it->second +
                  "; artifact directories and report sections would merge");
    }
  }
  out.sort();
  return out;
}

Report lint_campaign(const CampaignSpec& spec, const std::string& origin) {
  Report out;
  if (spec.tests.empty()) {
    out.add("CRVE042", origin, 0, "campaign plan has no tests");
  }
  if (spec.seeds.empty()) {
    out.add("CRVE042", origin, 0, "campaign plan has no seeds");
  }
  // The plan is the (test, seed) cross product, so a duplicate in either
  // axis duplicates whole rows of the matrix: wasted compute and ambiguous
  // artifact names (both runs write <test>_s<seed> files).
  std::set<std::string> tests_seen;
  for (const auto& t : spec.tests) {
    if (!tests_seen.insert(t).second) {
      out.add("CRVE040", origin, 0,
              "test '" + t + "' listed twice: every (\"" + t +
                  "\", seed) pair would run twice");
    }
  }
  std::set<std::uint64_t> seeds_seen;
  for (const auto& s : spec.seeds) {
    if (!seeds_seen.insert(s).second) {
      out.add("CRVE040", origin, 0,
              "seed " + std::to_string(s) +
                  " listed twice: every (test, " + std::to_string(s) +
                  ") pair would run twice");
    }
  }
  if (!(spec.alignment_threshold > 0.0 &&
        spec.alignment_threshold <= 1.0)) {
    std::ostringstream v;
    v << spec.alignment_threshold;
    out.add("CRVE041", origin, 0,
            "alignment threshold " + v.str() +
                " outside (0, 1]; the paper's sign-off bar is 0.99");
  }
  out.sort();
  return out;
}

Report lint_cache_provenance(const std::string& cache_dir,
                             bool build_sanitized,
                             const std::string& origin) {
  Report out;
  if (!build_sanitized) return out;  // the hazard is one-directional
  std::ifstream is(std::filesystem::path(cache_dir) / "index.json");
  if (!is) return out;  // fresh or absent cache: nothing to flag
  std::stringstream buf;
  buf << is.rdbuf();
  std::size_t plain = 0;
  std::size_t total = 0;
  try {
    const json::Value doc = json::parse(buf.str());
    const json::Value* entries = doc.find("entries");
    if (!entries || !entries->is_array()) return out;
    for (const json::Value& e : entries->items) {
      ++total;
      if (!e.bool_or("sanitize", false)) ++plain;
    }
  } catch (const std::exception&) {
    return out;  // corrupt index: the cache reconciles it on open
  }
  if (plain > 0) {
    out.add("CRVE060", origin, 0,
            std::to_string(plain) + " of " + std::to_string(total) +
                " entries in " + cache_dir +
                " were produced by an uninstrumented build; this "
                "sanitizer-instrumented build will never replay them "
                "(the build flavour is hashed), so every pair re-runs — "
                "point --cache-dir at a sanitizer-flavoured cache or "
                "prune this one");
  }
  out.sort();
  return out;
}

}  // namespace crve::lint

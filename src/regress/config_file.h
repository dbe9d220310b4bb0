// Node configuration files for the regression tool.
//
// The paper's regression tool "can load text files defining HDL parameters
// of each configuration; it's sufficient to indicate the directory to which
// the tool has to point". This module owns that key=value format — the one
// grammar both parse_config and crve_lint read it through:
//
//   name            = node_a
//   n_initiators    = 3
//   n_targets       = 2
//   bus_bytes       = 4        # data width in bytes (8..256 bits)
//   type            = 2        # 2 or 3
//   arch            = full     # shared | full | partial
//   arb             = lru      # fixed | rr | lru | latency | bandwidth | prog
//   programming_port= 0
//   # optional per-initiator lists, comma separated
//   priorities      = 0,1,2
//   latency_deadline= 4,10,16
//   bandwidth_quota = 8,0,0
//   bandwidth_window= 64
//   xbar_group      = 0,0,1    # per target (partial crossbar)
//
// Comments: everything from a '#' or a "//" to the end of the line is
// stripped, whether the comment is the whole line or trails a key=value
// pair; blank lines are ignored. A key set twice takes its last value.
// Problems name the offending key and, for enum-like fields (arch, arb,
// type), the accepted values.
//
// `crve_lint` turns every problem scan_config finds into its CRVE0xx finding
// and adds the semantic rules (DESIGN.md §12); `crve_regress` runs it over
// the config directory before planning unless --no-lint is given.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stbus/config.h"

namespace crve::regress {

// The whole-value decimal integer parser of the config grammar and of the
// crve_regress numeric flags: digits, with a leading '-' only when T is
// signed, and nothing else (no '+', no spaces, no trailing junk). nullopt
// for any other text and for a value outside T's range or above `max`.
template <class T>
std::optional<T> parse_integer(std::string_view v,
                               T max = std::numeric_limits<T>::max()) {
  T out{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc() || ptr != end || out > max) return std::nullopt;
  return out;
}

// The config spelling of each enum value (`type = 2`, `arch = full`,
// `arb = lru`), from the name tables the parser reads.
const char* config_name(stbus::ProtocolType t);
const char* config_name(stbus::Architecture a);
const char* config_name(stbus::ArbPolicy p);

// One problem in a config text. The kinds are in the order of the lint rules
// that report them, CRVE001..CRVE005.
struct ConfigIssue {
  enum Kind : std::uint8_t {
    kNotKeyValue,   // no '=' on the line, or nothing before it
    kUnknownKey,
    kDuplicateKey,  // the one kind parse_config accepts: the last value wins
    kBadInteger,
    kBadEnum,
  };
  Kind kind;
  int line;
  std::string message;
};

// A config text read tolerantly: every line is scanned, every problem kept,
// and every value that parses is typed into `cfg` over its defaults, the
// last assignment of a key winning. `cfg` is not validated.
struct ConfigScan {
  static constexpr std::size_t kKeyCount = 13;  // keys of the grammar

  stbus::NodeConfig cfg;
  std::vector<ConfigIssue> issues;  // in line order
  // The line each key's value in `cfg` came from, in the grammar's key
  // order; read it through line().
  std::array<int, kKeyCount> lines{};

  // The line `key` was set on; 0 when it was never set, its last
  // assignment did not parse, or it is not a key of the grammar.
  int line(std::string_view key) const;
};

ConfigScan scan_config(std::istream& is);

// Parses one configuration: scan_config, stopping at the first problem that
// is not a duplicate key, then NodeConfig::validate_and_normalize. Throws
// std::invalid_argument tagged "origin:line: " (or "origin: " for a
// validation failure).
stbus::NodeConfig parse_config(std::istream& is, const std::string& origin);
stbus::NodeConfig parse_config_file(const std::string& path);

// Serializes a configuration in the same format (round-trippable).
std::string format_config(const stbus::NodeConfig& cfg);

// The regular "*.cfg" files in `dir`, sorted by filename. Throws
// std::invalid_argument naming `dir` when it cannot be listed.
std::vector<std::string> config_files(const std::string& dir);

// Loads every config_files(dir) entry, in that order.
std::vector<stbus::NodeConfig> configs_from_dir(const std::string& dir);

}  // namespace crve::regress

#include "vcd/excerpt.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace crve::vcd {

namespace {

// Splits "tb.node.req" into scope path {"tb","node"} and leaf "req".
std::pair<std::vector<std::string>, std::string> split_name(
    const std::string& full) {
  std::vector<std::string> scopes;
  std::string part;
  std::istringstream is(full);
  while (std::getline(is, part, '.')) scopes.push_back(part);
  std::string leaf = scopes.back();
  scopes.pop_back();
  return {scopes, leaf};
}

// Change line in canonical VCD form: scalars as `<bit><id>`, vectors as
// `b<value> <id>` with leading zeros truncated down to one digit — the same
// rules vcd::Writer follows, so excerpts byte-match full dumps line-wise.
void append_change(std::string& out, std::string_view value,
                   const std::string& id) {
  if (value.size() == 1) {
    out += value;
    out += id;
    out += "\n";
    return;
  }
  const std::size_t first = value.find('1');
  out += "b";
  if (first == std::string_view::npos) {
    out += "0";
  } else {
    out += value.substr(first);
  }
  out += " ";
  out += id;
  out += "\n";
}

}  // namespace

void write_excerpt(const Trace& trace, std::uint64_t begin, std::uint64_t end,
                   std::ostream& os) {
  if (end > trace.max_time()) end = trace.max_time();

  std::string out;
  out.reserve(4096);
  out += "$date crve $end\n";
  out += "$version crve vcd excerpt $end\n";
  out += "$comment window " + std::to_string(begin) + " " +
         std::to_string(end) + " $end\n";
  out += "$timescale 1ns $end\n";

  const auto& vars = trace.vars();
  std::vector<std::string> open;
  for (const auto& var : vars) {
    auto [scopes, leaf] = split_name(var.name);
    std::size_t common = 0;
    while (common < open.size() && common < scopes.size() &&
           open[common] == scopes[common]) {
      ++common;
    }
    for (std::size_t j = open.size(); j > common; --j) {
      out += "$upscope $end\n";
    }
    open.resize(common);
    for (std::size_t j = common; j < scopes.size(); ++j) {
      out += "$scope module ";
      out += scopes[j];
      out += " $end\n";
      open.push_back(scopes[j]);
    }
    out += "$var wire ";
    out += std::to_string(var.width);
    out += " ";
    out += var.id;
    out += " ";
    out += leaf;
    out += " $end\n";
  }
  for (std::size_t j = open.size(); j > 0; --j) out += "$upscope $end\n";
  out += "$enddefinitions $end\n";

  // Snapshot: every variable's settled value at the window start.
  out += "#" + std::to_string(begin) + "\n";
  for (std::size_t i = 0; i < vars.size(); ++i) {
    append_change(out, trace.value_at(static_cast<int>(i), begin), vars[i].id);
  }

  // In-window changes, merged across variables in (time, declaration order).
  struct Event {
    std::uint64_t time;
    std::size_t var;
    std::string_view value;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const Trace::ChangeList changes = trace.changes(static_cast<int>(i));
    for (std::size_t k = 0; k < changes.size(); ++k) {
      const Change c = changes[k];
      if (c.time > begin && c.time <= end) {
        events.push_back({c.time, i, c.value});
      }
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time < b.time : a.var < b.var;
  });

  std::uint64_t last_time = begin;
  bool any_at_end = false;
  for (const Event& e : events) {
    if (e.time != last_time) {
      out += "#" + std::to_string(e.time) + "\n";
      last_time = e.time;
    }
    if (e.time == end) any_at_end = true;
    append_change(out, e.value, vars[e.var].id);
  }

  // Close the window explicitly so its extent parses back even when the
  // final cycles are quiet.
  if (end > begin && !any_at_end) {
    out += "#" + std::to_string(end) + "\n";
  }

  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void write_excerpt_file(const Trace& trace, std::uint64_t begin,
                        std::uint64_t end, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("vcd::write_excerpt_file: cannot open " + path);
  }
  write_excerpt(trace, begin, end, os);
}

}  // namespace crve::vcd

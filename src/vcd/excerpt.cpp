#include "vcd/excerpt.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace crve::vcd {

namespace {

// Staged-output flush threshold. Large enough that the stream sees a few
// big writes per wave instead of one per change line.
constexpr std::size_t kFlushAt = 64 * 1024;

// Change line in canonical VCD form: scalars as `<bit><id>`, vectors as
// `b<value> <id>` with leading zeros truncated down to one digit.
void append_change(std::string& out, std::string_view value,
                   const std::string& id) {
  if (value.size() == 1) {
    out += value;
  } else {
    const std::size_t first = value.find('1');
    out += 'b';
    out += first == std::string_view::npos ? "0" : value.substr(first);
    out += ' ';
  }
  out += id;
  out += '\n';
}

void append_time(std::string& out, std::uint64_t t) {
  out += '#';
  out += std::to_string(t);
  out += '\n';
}

// $scope/$upscope transitions between consecutive variables' dotted paths,
// one $var per variable.
void append_declarations(std::string& out, const std::vector<Var>& vars) {
  std::vector<std::string_view> open;
  for (const Var& var : vars) {
    const std::string_view name = var.name;
    std::vector<std::string_view> scopes;
    std::size_t from = 0;
    for (std::size_t dot; (dot = name.find('.', from)) != name.npos;
         from = dot + 1) {
      scopes.push_back(name.substr(from, dot - from));
    }
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
    out += ' ';
    out += var.id;
    out += ' ';
    out += name.substr(from);
    out += " $end\n";
  }
  for (std::size_t j = open.size(); j > 0; --j) out += "$upscope $end\n";
  out += "$enddefinitions $end\n";
}

// Writes [begin, end] of `trace` to `os`, `head` being the header lines
// between $date and $timescale; returns the bytes written.
std::uint64_t emit(const Trace& trace, std::uint64_t begin, std::uint64_t end,
                   const std::string& head, std::ostream& os) {
  if (end > trace.max_time()) end = trace.max_time();
  std::uint64_t bytes = 0;
  std::string out;
  out.reserve(kFlushAt + 4096);
  auto flush = [&] {
    bytes += out.size();
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  };

  out += "$date crve $end\n";
  out += head;
  out += "$timescale 1ns $end\n";
  const auto& vars = trace.vars();
  append_declarations(out, vars);

  // Snapshot: every variable's settled value at the window start.
  append_time(out, begin);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    append_change(out, trace.value_at(static_cast<int>(i), begin), vars[i].id);
  }

  // In-window changes in (time, declaration) order: a min-heap holding each
  // variable's next in-window change.
  std::vector<std::size_t> pos(vars.size());
  using Next = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Next, std::vector<Next>, std::greater<>> heap;
  auto push_next = [&](std::size_t i) {
    const Trace::ChangeList changes = trace.changes(static_cast<int>(i));
    if (pos[i] < changes.size() && changes[pos[i]].time <= end) {
      heap.push({changes[pos[i]].time, i});
    }
  };
  for (std::size_t i = 0; i < vars.size(); ++i) {
    pos[i] = trace.changes(static_cast<int>(i)).first_after(begin);
    push_next(i);
  }
  std::uint64_t last_time = begin;
  while (!heap.empty()) {
    const auto [time, i] = heap.top();
    heap.pop();
    if (time != last_time) {
      append_time(out, time);
      last_time = time;
    }
    append_change(out, trace.changes(static_cast<int>(i))[pos[i]++].value,
                  vars[i].id);
    push_next(i);
    if (out.size() >= kFlushAt) flush();
  }

  // Close the window explicitly so its extent parses back even when the
  // final cycles are quiet.
  if (last_time < end) append_time(out, end);
  flush();
  return bytes;
}

}  // namespace

std::uint64_t write_wave(const Trace& trace, std::ostream& os) {
  const std::uint64_t bytes =
      emit(trace, 0, trace.max_time(), "$version crve vcd writer $end\n", os);
  if (obs::metrics_enabled()) {
    std::uint64_t changes = 0;
    std::uint64_t touched = 0;
    for (std::size_t i = 0; i < trace.vars().size(); ++i) {
      const std::size_t n = trace.changes(static_cast<int>(i)).size();
      changes += n;
      if (n != 0) ++touched;
    }
    obs::counter("vcd.dumps").inc();
    obs::counter("vcd.bytes_flushed").add(bytes);
    obs::counter("vcd.value_changes").add(changes);
    obs::counter("vcd.signals_declared").add(trace.vars().size());
    obs::counter("vcd.signals_touched").add(touched);
  }
  return bytes;
}

void write_excerpt(const Trace& trace, std::uint64_t begin, std::uint64_t end,
                   std::ostream& os) {
  const std::uint64_t shown = std::min(end, trace.max_time());
  emit(trace, begin, end,
       "$version crve vcd excerpt $end\n$comment window " +
           std::to_string(begin) + " " + std::to_string(shown) + " $end\n",
       os);
}

void write_excerpt_file(const Trace& trace, std::uint64_t begin,
                        std::uint64_t end, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("vcd::write_excerpt_file: cannot open " + path);
  }
  write_excerpt(trace, begin, end, os);
  check_written(os, path);
}

void check_written(std::ostream& os, const std::string& what) {
  os.flush();
  if (!os) throw std::runtime_error("vcd: cannot write " + what);
}

}  // namespace crve::vcd

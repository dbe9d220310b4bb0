#include "vcd/excerpt.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "obs/metrics.h"

namespace crve::vcd {

namespace {

// Staged-output flush threshold. Large enough that the stream sees a few
// big writes per wave instead of one per change line.
constexpr std::size_t kFlushAt = 64 * 1024;

// Change line in canonical VCD form: scalars as `<bit><id>`, vectors as
// `b<value> <id>` with leading zeros truncated down to one digit. The one
// place a value becomes VCD text.
void append_change(std::string& out, const Value& value,
                   const std::string& id) {
  const std::uint64_t* w = value.words();
  if (value.width() == 1) {
    out += w[0] != 0 ? '1' : '0';
  } else {
    std::size_t n = words_for(value.width());
    while (n > 0 && w[n - 1] == 0) --n;
    // Significant bits: up to the highest set one, at least one digit.
    const int bits = n == 0 ? 1
                            : static_cast<int>(n * 64) -
                                  std::countl_zero(w[n - 1]);
    out += 'b';
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(bits));
    write_bin(out.data() + at, w, bits);
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

  // One walk of the log, which is already in (time, declaration) order:
  // the changes up to the window start settle the snapshot, the ones in
  // the window follow it.
  int widest = 1;
  for (const Var& v : vars) widest = std::max(widest, v.width);
  const std::vector<std::uint64_t> zeros(words_for(widest), 0);
  std::vector<Value> settled;
  settled.reserve(vars.size());
  for (const Var& v : vars) settled.emplace_back(zeros.data(), v.width);
  auto it = trace.begin();
  for (; it != trace.end() && (*it).time <= begin; ++it) {
    const Trace::Entry e = *it;
    settled[static_cast<std::size_t>(e.var)] = e.value;
  }
  append_time(out, begin);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    append_change(out, settled[i], vars[i].id);
  }

  std::uint64_t last_time = begin;
  for (; it != trace.end(); ++it) {
    const Trace::Entry e = *it;
    if (e.time > end) break;
    if (e.time != last_time) {
      append_time(out, e.time);
      last_time = e.time;
    }
    append_change(out, e.value, vars[static_cast<std::size_t>(e.var)].id);
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
      const std::size_t n = trace.change_count(static_cast<int>(i));
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

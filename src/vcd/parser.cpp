#include "vcd/parser.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

namespace crve::vcd {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("vcd::Trace: " + what);
}

// Whitespace-separated tokens over the whole dump.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_(text) {}

  // Next token; empty at end of input.
  std::string_view next() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(begin, pos_ - begin);
  }

  // Skips tokens up to and including the next `$end`.
  void skip_to_end() {
    for (std::string_view t = next(); !t.empty() && t != "$end"; t = next()) {
    }
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\f' ||
           c == '\v';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Parses an unsigned decimal token in full; nullopt on anything else
// (empty, signs, trailing garbage, overflow).
std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

// Appends a VCD binary value to `out` padded or truncated to exactly
// `width` characters, x/z expanded to 0 (our models are two-valued).
void append_normalized(std::string& out, std::string_view v,
                       std::size_t width) {
  if (v.size() > width) v.remove_prefix(v.size() - width);
  out.append(width - v.size(), '0');
  for (const char c : v) {
    const bool xz = c == 'x' || c == 'X' || c == 'z' || c == 'Z';
    out.push_back(xz ? '0' : c);
  }
}

}  // namespace

std::string id_code(int index) {
  std::string id;
  int n = index;
  do {
    id.push_back(static_cast<char>('!' + n % 94));
    n /= 94;
  } while (n > 0);
  return id;
}

void Trace::finish_vars() {
  int widest = 0;
  for (const auto& v : vars_) widest = std::max(widest, v.width);
  zeros_.assign(static_cast<std::size_t>(widest), '0');
  tracks_.resize(vars_.size());
}

Trace Trace::parse_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("vcd::Trace: cannot open " + path);
  return parse(is);
}

Trace Trace::parse(std::istream& is) {
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  Tokens toks(text);
  Trace t;
  // Id code -> every variable declared with it (aliases share one code).
  std::map<std::string_view, std::vector<int>> by_id;
  std::vector<std::string_view> scope;

  // --- header ---------------------------------------------------------
  for (std::string_view tok = toks.next(); !tok.empty(); tok = toks.next()) {
    if (tok == "$scope") {
      toks.next();  // kind
      scope.push_back(toks.next());
      toks.skip_to_end();
    } else if (tok == "$upscope") {
      toks.skip_to_end();
      if (!scope.empty()) scope.pop_back();
    } else if (tok == "$var") {
      toks.next();  // kind
      const std::string_view width_s = toks.next();
      const std::string_view id = toks.next();
      const std::string_view name = toks.next();
      toks.skip_to_end();  // optional "[msb:lsb]", then $end
      const std::optional<std::uint64_t> width = parse_u64(width_s);
      if (!width) {
        fail("non-numeric width '" + std::string(width_s) + "' of $var " +
             std::string(name));
      }
      if (*width == 0 || *width > static_cast<std::uint64_t>(kMaxWidth)) {
        fail("width '" + std::string(width_s) + "' of $var " +
             std::string(name) + " is outside [1, " +
             std::to_string(kMaxWidth) + "]");
      }
      Var v;
      v.width = static_cast<int>(*width);
      v.id = std::string(id);
      for (const auto s : scope) {
        v.name += s;
        v.name += '.';
      }
      v.name += name;
      by_id[id].push_back(static_cast<int>(t.vars_.size()));
      t.vars_.push_back(std::move(v));
    } else if (tok == "$enddefinitions") {
      toks.skip_to_end();
      break;
    } else if (tok == "$date" || tok == "$version" || tok == "$timescale" ||
               tok == "$comment") {
      toks.skip_to_end();
    }
  }
  t.finish_vars();

  // Applies one value change of id `id` at the current time.
  std::uint64_t now = 0;
  auto apply = [&](std::string_view id, std::string_view value) {
    const auto it = by_id.find(id);
    if (it == by_id.end()) fail("unknown id " + std::string(id));
    for (const int vi : it->second) {
      Track& tr = t.tracks_[static_cast<std::size_t>(vi)];
      tr.times.push_back(now);
      append_normalized(tr.values, value, t.width_of(vi));
    }
  };

  // --- change stream ----------------------------------------------------
  bool timed = false;
  for (std::string_view tok = toks.next(); !tok.empty(); tok = toks.next()) {
    const char c = tok[0];
    if (c == '#') {
      const std::optional<std::uint64_t> time = parse_u64(tok.substr(1));
      if (!time) fail("non-numeric time '" + std::string(tok) + "'");
      if (timed && *time < now) {
        fail("time '" + std::string(tok) + "' goes backwards (after #" +
             std::to_string(now) + ")");
      }
      now = *time;
      timed = true;
      t.max_time_ = now;
    } else if (c == 'b' || c == 'B') {
      apply(toks.next(), tok.substr(1));
    } else if (c == '0' || c == '1' || c == 'x' || c == 'X' || c == 'z' ||
               c == 'Z') {
      apply(tok.substr(1), tok.substr(0, 1));
    } else if (tok == "$comment") {
      toks.skip_to_end();
    } else if (c == '$') {
      // $dumpvars / $end etc. — skip keyword blocks without payload.
      continue;
    } else {
      fail("unexpected token " + std::string(tok));
    }
  }
  return t;
}

bool Trace::operator==(const Trace& o) const {
  if (vars_ != o.vars_ || max_time_ != o.max_time_) return false;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].times != o.tracks_[i].times ||
        tracks_[i].values != o.tracks_[i].values) {
      return false;
    }
  }
  return true;
}

std::vector<int> Trace::matches(const std::string& suffix) const {
  std::vector<int> hits;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const std::string& n = vars_[i].name;
    if (n == suffix || (n.size() > suffix.size() &&
                        n.compare(n.size() - suffix.size(), suffix.size(),
                                  suffix) == 0 &&
                        n[n.size() - suffix.size() - 1] == '.')) {
      hits.push_back(static_cast<int>(i));
    }
  }
  return hits;
}

std::optional<int> Trace::find(const std::string& suffix) const {
  const std::vector<int> hits = matches(suffix);
  if (hits.size() != 1) return std::nullopt;
  return hits.front();
}

std::string_view Trace::value_at(int var, std::uint64_t t) const {
  const ChangeList list = changes(var);
  // The last change with time <= t precedes the first one after t.
  const std::size_t k = list.first_after(t);
  return k == 0 ? zero_of(var) : list[k - 1].value;
}

}  // namespace crve::vcd

#include "vcd/parser.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/bits.h"
#include "obs/metrics.h"

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

// Reads a VCD binary value into the zeroed words_for(width) words at `out`,
// padded or truncated to `width` bits, x/z read as 0 (our models are
// two-valued); false on any other character.
bool read_value(std::string_view v, int width, std::uint64_t* out) {
  const auto w = static_cast<std::size_t>(width);
  if (v.size() > w) v.remove_prefix(v.size() - w);
  // Bit b of the value is v[v.size() - 1 - b]. Branch-free per character:
  // the bits of a value are as good as random.
  bool valid = true;
  for (std::size_t bit = 0; bit < v.size(); ++out) {
    std::uint64_t word = 0;
    for (const std::size_t end = std::min(v.size(), bit + 64); bit < end;
         ++bit) {
      const char c = v[v.size() - 1 - bit];
      word |= static_cast<std::uint64_t>(c == '1') << (bit % 64);
      valid &= c == '0' || c == '1' || (c | 0x20) == 'x' || (c | 0x20) == 'z';
    }
    *out = word;
  }
  return valid;
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

std::string Value::text() const {
  std::string s(static_cast<std::size_t>(width_), '0');
  write_bin(s.data(), words_, width_);
  return s;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.text();
}

void Trace::finish_vars() {
  int widest = 0;
  widths_.clear();
  for (const auto& v : vars_) {
    widths_.push_back(v.width);
    widest = std::max(widest, v.width);
  }
  zeros_.assign(words_for(widest), 0);
  counts_.assign(vars_.size(), 0);
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

  // Changes enter the log as they are read. The changes of one time must
  // end up in variable order (stable, so repeated changes of one variable
  // keep theirs); a dump that lists them otherwise has its time's group
  // reordered once the time moves on.
  std::uint64_t now = 0;
  std::size_t group = 0;  // log offset of the first change at `now`
  int last_var = -1;      // variable of the latest change at `now`
  bool ordered = true;    // the group is in variable order
  auto flush = [&] {
    if (!ordered) t.order_group(group);
    group = t.log_.size();
    last_var = -1;
    ordered = true;
  };

  const std::size_t budget =
      kMaxLogBytesPerInputByte * text.size() +
      (kHeaderWords + words_for(kMaxWidth)) * sizeof(std::uint64_t);
  // Applies one value change of id `id` at the current time.
  auto apply = [&](std::string_view id, std::string_view value) {
    const auto it = by_id.find(id);
    if (it == by_id.end()) fail("unknown id " + std::string(id));
    for (const int vi : it->second) {
      const Var& var = t.vars_[static_cast<std::size_t>(vi)];
      const std::size_t words =
          t.log_.size() + kHeaderWords + words_for(var.width);
      if (words * sizeof(std::uint64_t) > budget) {
        fail("change of $var " + var.name + " at #" + std::to_string(now) +
             " takes the log past " + std::to_string(budget) + " bytes (" +
             std::to_string(kMaxLogBytesPerInputByte) + " per byte of a " +
             std::to_string(text.size()) + "-byte dump)");
      }
      if (!read_value(value, var.width, t.add_entry(now, vi))) {
        fail("invalid value '" + std::string(value) + "' of $var " +
             var.name + " at #" + std::to_string(now));
      }
      ordered = ordered && vi >= last_var;
      last_var = vi;
    }
  };

  // --- change stream ----------------------------------------------------
  bool timed = false;
  for (std::string_view tok = toks.next(); !tok.empty(); tok = toks.next()) {
    const char c = tok[0];
    if (c == '#') {
      const std::optional<std::uint64_t> time = parse_u64(tok.substr(1));
      if (!time) fail("non-numeric time '" + std::string(tok) + "'");
      // Consumers span max_time() + 1 cycles; the largest u64 would wrap
      // that to an empty trace.
      if (*time == std::numeric_limits<std::uint64_t>::max()) {
        fail("time '" + std::string(tok) + "' is out of range");
      }
      if (timed && *time < now) {
        fail("time '" + std::string(tok) + "' goes backwards (after #" +
             std::to_string(now) + ")");
      }
      if (*time != now) flush();
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
  flush();
  return t;
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

void Trace::order_group(std::size_t from) {
  struct Entry {
    std::uint32_t var;
    std::size_t at;
    std::size_t end;
  };
  std::vector<Entry> group;
  for (std::size_t at = from; at < log_.size();) {
    const std::size_t end = at + kHeaderWords + (log_[at + 1] >> 32);
    group.push_back({static_cast<std::uint32_t>(log_[at + 1]), at, end});
    at = end;
  }
  std::stable_sort(
      group.begin(), group.end(),
      [](const Entry& x, const Entry& y) { return x.var < y.var; });
  std::vector<std::uint64_t> sorted;
  sorted.reserve(log_.size() - from);
  for (const Entry& e : group) {
    sorted.insert(sorted.end(), log_.data() + e.at, log_.data() + e.end);
  }
  std::copy(sorted.begin(), sorted.end(), log_.data() + from);
}

const Trace::Index& Trace::index() const {
  std::call_once(index_->built, [this] {
    Index& ix = *index_;
    ix.first.assign(vars_.size() + 1, 0);
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      ix.first[v + 1] = ix.first[v] + counts_[v];
    }
    ix.at.resize(ix.first.back());
    std::vector<std::size_t> next(ix.first.begin(), ix.first.end() - 1);
    for (std::size_t off = 0; off < log_.size();) {
      ix.at[next[static_cast<std::uint32_t>(log_[off + 1])]++] = off;
      off += kHeaderWords + (log_[off + 1] >> 32);
    }
    if (obs::metrics_enabled()) obs::counter("vcd.track_indexes").inc();
  });
  return *index_;
}

Trace::ChangeList Trace::changes(int var) const {
  const Index& ix = index();
  const auto v = static_cast<std::size_t>(var);
  return ChangeList(log_.data(), ix.at.data() + ix.first[v], counts_[v],
                    width_of(var));
}

bool Trace::ChangeList::operator==(const ChangeList& o) const {
  if (width_ != o.width_ || n_ != o.n_) return false;
  const std::size_t entry = kHeaderWords + words_for(width_);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::uint64_t* x = log_ + at_[k];
    const std::uint64_t* y = o.log_ + o.at_[k];
    // The variable index (word 1) may differ; time and value must not.
    if (x[0] != y[0] ||
        !std::equal(x + kHeaderWords, x + entry, y + kHeaderWords)) {
      return false;
    }
  }
  return true;
}

Value Trace::value_at(int var, std::uint64_t t) const {
  const ChangeList list = changes(var);
  // The last change with time <= t precedes the first one after t.
  const std::size_t k = list.first_after(t);
  return k == 0 ? zero_of(var) : list[k - 1].value;
}

}  // namespace crve::vcd

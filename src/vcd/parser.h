// In-memory value-change trace, and the VCD reader that builds one.
//
// A Trace is a variable table (hierarchical dotted names, widths, VCD id
// codes) plus one change log for all variables. The log is a flat vector
// of 64-bit words holding one entry per change:
//
//   [time] [n << 32 | variable index] [value word 0] ... [value word n-1]
//
// with n = words_for(width) little-endian words, bits at and above the
// width zero: the value as the simulator holds it, not as text. The header
// carries n so a walk steps over an entry without looking its variable up
// (a log walk is a chain of dependent loads, one per entry). Entries
// are in canonical (time, variable index) order; changes of one variable
// at one time keep the order they were made in. So two recordings of the
// same values are equal exactly when their logs are equal word for word,
// whatever order the simulator committed the changes in, and a clean
// sign-off pair is proved aligned with one comparison (stba::Analyzer).
// Per-variable change counts are kept as the log fills.
//
// Two producers fill a Trace: vcd::Recorder (recorder.h) records one
// straight from the simulator, and Trace::parse reads a VCD dump (the
// crve_stba CLI, hand-made fixtures). The way back to text is excerpt.h,
// which writes full waves and windowed excerpts in one walk of the log;
// Value::text() is the only other place that turns a value into text.
//
// Readers that need one variable's changes (value_at, changes, cursor: the
// STBA merge over a port that differs, triage) share a per-variable index
// into the log, built once on first use and thread-safe to build. A pair
// the whole-log comparison proves equal never builds it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace crve::vcd {

// VCD identifier code of the i-th declared variable: base-94 over the
// printable ASCII range '!'..'~', least significant digit first.
std::string id_code(int index);

// Number of 64-bit words that hold a value `width` bits wide.
constexpr std::size_t words_for(int width) {
  return (static_cast<std::size_t>(width) + 63) / 64;
}

struct Var {
  std::string name;  // full dotted name, e.g. "tb.init0.req"
  int width = 0;
  std::string id;    // VCD identifier code

  bool operator==(const Var&) const = default;
};

// One value as a view into the Trace that holds it: words_for(width())
// little-endian words, bits at and above width() zero. Valid while the
// Trace lives.
class Value {
 public:
  Value() = default;
  Value(const std::uint64_t* words, int width) : words_(words), width_(width) {}

  int width() const { return width_; }
  const std::uint64_t* words() const { return words_; }

  // A one-bit value holding 1 (a set handshake bit).
  bool is_one() const { return width_ == 1 && words_[0] == 1; }

  // MSB-first binary text, exactly width() characters: the text accessor
  // for reports, cold paths and tests.
  std::string text() const;

  // Same width and the same bits.
  friend bool operator==(const Value& a, const Value& b) {
    return a.width_ == b.width_ &&
           std::equal(a.words_, a.words_ + words_for(a.width_), b.words_);
  }

 private:
  const std::uint64_t* words_ = nullptr;
  int width_ = 0;
};

// Prints text().
std::ostream& operator<<(std::ostream& os, const Value& v);

// One change of one variable.
struct Change {
  std::uint64_t time = 0;
  Value value;
};

class Trace {
 public:
  // Widest variable the reader accepts. A $var width is a header token an
  // untrusted dump controls, so the reader refuses anything above this cap
  // with a diagnostic. The STBus fields top out at a few hundred bits;
  // 65536 leaves generous room.
  static constexpr int kMaxWidth = 65536;

  // Log bytes the reader may store per byte of dump text, on top of one
  // entry of the widest variable. A short token can stand for a wide value
  // ("b1 !" sets a 65536-bit variable), and aliases repeat each change once
  // per variable, so the log is bounded linearly in the input size instead:
  // a dump that would need more is refused with a diagnostic naming the
  // variable and time. A dump written by excerpt.h stores at most about 10
  // bytes per byte for variables up to 256 bits wide.
  static constexpr std::size_t kMaxLogBytesPerInputByte = 64;

  // Words of an entry before its value: time, then the variable index in
  // the low 32 bits and the value's word count in the high 32.
  static constexpr std::size_t kHeaderWords = 2;

  // A moved-from Trace may only be assigned to or destroyed.
  Trace() = default;
  Trace(Trace&&) noexcept = default;
  Trace& operator=(Trace&&) noexcept = default;

  // Throws std::runtime_error("vcd::Trace: ...") naming the offending token
  // on malformed input: a non-numeric, non-positive or over-cap width, a
  // non-numeric or decreasing `#` time, an unknown id or token, a value
  // character other than 0/1/x/z, or a log above the input-size bound.
  // Values are padded or truncated to the variable's width, x/z read as 0
  // (the models are two-valued). Several $vars may share one id code (IEEE
  // 1364 aliases); each change of that id is applied to every one of them.
  static Trace parse(std::istream& is);
  static Trace parse_file(const std::string& path);

  const std::vector<Var>& vars() const { return vars_; }

  // Indices of every variable whose full name is `suffix` or ends with
  // "." + `suffix`, in declaration order.
  std::vector<int> matches(const std::string& suffix) const;

  // The one variable matches(suffix) names; nullopt when there is none or
  // more than one.
  std::optional<int> find(const std::string& suffix) const;

  std::uint64_t max_time() const { return max_time_; }

  // Number of changes of variable `var`; needs no index.
  std::size_t change_count(int var) const {
    return counts_[static_cast<std::size_t>(var)];
  }

  // One entry of the change log.
  struct Entry {
    std::uint64_t time = 0;
    int var = 0;
    Value value;
  };

  // Forward iterator over the log's entries in canonical order.
  class LogIterator {
   public:
    Entry operator*() const {
      const auto var = static_cast<int>(static_cast<std::uint32_t>(p_[1]));
      return {p_[0], var, Value(p_ + kHeaderWords, t_->width_of(var))};
    }
    LogIterator& operator++() {
      p_ += kHeaderWords + (p_[1] >> 32);
      return *this;
    }
    bool operator!=(const LogIterator& o) const { return p_ != o.p_; }

   private:
    friend class Trace;
    LogIterator(const Trace* t, const std::uint64_t* p) : t_(t), p_(p) {}
    const Trace* t_;
    const std::uint64_t* p_;
  };
  LogIterator begin() const { return {this, log_.data()}; }
  LogIterator end() const { return {this, log_.data() + log_.size()}; }

  // Settled value of variable `var` at time `t` (last change at or before t).
  // Before the first change the value is all-zeros. O(log changes) random
  // access; for monotone scans prefer cursor().
  Value value_at(int var, std::uint64_t t) const;

  // One variable's change list, in time order.
  class ChangeList {
   public:
    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    Change operator[](std::size_t k) const {
      const std::uint64_t* e = log_ + at_[k];
      return {e[0], Value(e + kHeaderWords, width_)};
    }
    // Same width and the same changes: the two variables hold equal values
    // at every time.
    bool operator==(const ChangeList& o) const;
    // Index of the first change strictly after time `t` (size() if none).
    std::size_t first_after(std::uint64_t t) const {
      return static_cast<std::size_t>(
          std::upper_bound(at_, at_ + n_, t,
                           [this](std::uint64_t x, std::size_t off) {
                             return x < log_[off];
                           }) -
          at_);
    }

   private:
    friend class Trace;
    ChangeList(const std::uint64_t* log, const std::size_t* at, std::size_t n,
               int width)
        : log_(log), at_(at), n_(n), width_(width) {}

    const std::uint64_t* log_;
    const std::size_t* at_;  // log offsets of this variable's entries
    std::size_t n_;
    int width_;
  };

  ChangeList changes(int var) const;

  // Forward iterator over one variable's change list. value_at(t) with
  // non-decreasing t is amortized O(1) per call over a full sweep — the
  // trace-analysis fast path (STBA's merge walks one cursor per field).
  class Cursor {
   public:
    // Sentinel returned by next_change_time() when no change lies ahead.
    static constexpr std::uint64_t kNoChange = ~std::uint64_t{0};

    // Settled value at time `t`. Calls must use non-decreasing `t`;
    // rewinding requires a fresh cursor.
    Value value_at(std::uint64_t t) {
      while (pos_ < n_ && log_[at_[pos_]] <= t) ++pos_;
      return pos_ == 0 ? zero_
                       : Value(log_ + at_[pos_ - 1] + kHeaderWords,
                               zero_.width());
    }

    // Time of the next change strictly after the last value_at() query
    // (or of the first change, before any query); kNoChange when exhausted.
    std::uint64_t next_change_time() const {
      return pos_ < n_ ? log_[at_[pos_]] : kNoChange;
    }

    // Number of changes at or before the last queried time.
    std::size_t consumed() const { return pos_; }

   private:
    friend class Trace;
    Cursor(const ChangeList& list, Value zero)
        : log_(list.log_), at_(list.at_), n_(list.n_), zero_(zero) {}

    const std::uint64_t* log_;
    const std::size_t* at_;
    std::size_t n_;
    Value zero_;  // all-zero value for t < first change
    std::size_t pos_ = 0;  // changes applied so far
  };

  Cursor cursor(int var) const { return Cursor(changes(var), zero_of(var)); }

  // Same variables (names, widths, ids), same max_time and the same log:
  // every variable holds the same values at every time.
  bool operator==(const Trace& o) const {
    return max_time_ == o.max_time_ && log_ == o.log_ && vars_ == o.vars_;
  }

 private:
  friend class Recorder;

  int width_of(int var) const { return widths_[static_cast<std::size_t>(var)]; }
  Value zero_of(int var) const { return Value(zeros_.data(), width_of(var)); }
  // Sizes the per-variable state for vars_; called once vars_ is final.
  void finish_vars();
  // Appends an entry of variable `var` at `time` and returns its value
  // words, zeroed, for the caller to fill.
  std::uint64_t* add_entry(std::uint64_t time, int var) {
    const std::size_t n = words_for(width_of(var));
    log_.push_back(time);
    log_.push_back(static_cast<std::uint64_t>(n) << 32 |
                   static_cast<std::uint32_t>(var));
    for (std::size_t k = 0; k < n; ++k) log_.push_back(0);
    ++counts_[static_cast<std::size_t>(var)];
    return log_.data() + log_.size() - n;
  }
  // Puts the entries from log offset `from` to the end, all of one time,
  // in variable order, keeping the order of each variable's own entries.
  void order_group(std::size_t from);

  // The per-variable index: variable v's entries start at log offsets
  // at[first[v]] .. at[first[v + 1] - 1], in time order. It holds offsets,
  // so it moves with the log.
  struct Index {
    std::once_flag built;
    std::vector<std::size_t> first;
    std::vector<std::size_t> at;
  };
  const Index& index() const;

  std::vector<Var> vars_;
  std::vector<int> widths_;  // vars_[v].width, packed for log walks
  std::vector<std::uint64_t> log_;
  std::vector<std::size_t> counts_;    // changes per variable
  std::vector<std::uint64_t> zeros_;   // widest variable's all-zero value
  std::uint64_t max_time_ = 0;
  std::unique_ptr<Index> index_ = std::make_unique<Index>();
};

}  // namespace crve::vcd

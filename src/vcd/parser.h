// In-memory value-change trace, and the VCD reader that builds one.
//
// A Trace is a variable table (hierarchical dotted names, widths, VCD id
// codes) plus one change list per variable. Each change list is stored
// packed: a vector of change times and one string holding every value
// back to back at exactly the variable's width, so a trace of N changes
// costs two allocations per variable, not N. Values are handed out as
// string_views into that storage; they stay valid while the Trace lives.
//
// Two producers build Traces: Trace::parse reads a VCD dump (the crve_stba
// CLI, hand-made fixtures), and vcd::Recorder (recorder.h) records one
// straight from the simulator without a text round trip. The way back to
// text is excerpt.h, which writes full waves and windowed excerpts.
// value_at() answers "what did signal X hold at cycle T" by binary search;
// cursor() is the amortized O(1) forward sweep the alignment computation
// uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace crve::vcd {

// VCD identifier code of the i-th declared variable: base-94 over the
// printable ASCII range '!'..'~', least significant digit first.
std::string id_code(int index);

struct Var {
  std::string name;  // full dotted name, e.g. "tb.init0.req"
  int width = 0;
  std::string id;    // VCD identifier code

  bool operator==(const Var&) const = default;
};

// One change of one variable, as a view into the owning Trace.
struct Change {
  std::uint64_t time = 0;
  std::string_view value;  // normalized: exactly `width` binary chars
};

class Trace {
 public:
  // Widest variable the reader accepts. A $var width is a header token an
  // untrusted dump controls, and every value of the variable is stored at
  // that width, so the reader refuses anything above this cap with a
  // diagnostic instead of attempting the allocation. The STBus fields top
  // out at a few hundred bits; 65536 leaves generous room.
  static constexpr int kMaxWidth = 65536;

  // Throws std::runtime_error("vcd::Trace: ...") naming the offending token
  // on malformed input: a non-numeric, non-positive or over-cap width, a
  // non-numeric or decreasing `#` time, an unknown id or token. Several
  // $vars may share one id code (IEEE 1364 aliases); each change of that
  // id is applied to every one of them.
  static Trace parse(std::istream& is);
  static Trace parse_file(const std::string& path);

  const std::vector<Var>& vars() const { return vars_; }

  // Indices of every variable whose full name is `suffix` or ends with
  // "." + `suffix`, in declaration order.
  std::vector<int> matches(const std::string& suffix) const;

  // The one variable matches(suffix) names; nullopt when there is none or
  // more than one.
  std::optional<int> find(const std::string& suffix) const;

  // Settled value of variable `var` at time `t` (last change at or before t).
  // Before the first change the value is all-zeros. O(log changes) random
  // access; for monotone scans prefer cursor().
  std::string_view value_at(int var, std::uint64_t t) const;

  // One variable's change list, in time order.
  class ChangeList {
   public:
    std::size_t size() const { return times_->size(); }
    bool empty() const { return times_->empty(); }
    Change operator[](std::size_t k) const {
      return {(*times_)[k], std::string_view(values_->data() + k * width_,
                                             width_)};
    }
    // Same width and the same changes: the two variables hold equal values
    // at every time.
    bool operator==(const ChangeList& o) const {
      return width_ == o.width_ && *times_ == *o.times_ &&
             *values_ == *o.values_;
    }
    // Index of the first change strictly after time `t` (size() if none).
    std::size_t first_after(std::uint64_t t) const {
      return static_cast<std::size_t>(
          std::upper_bound(times_->begin(), times_->end(), t) -
          times_->begin());
    }

   private:
    friend class Trace;
    ChangeList(const std::vector<std::uint64_t>& times,
               const std::string& values, std::size_t width)
        : times_(&times), values_(&values), width_(width) {}

    const std::vector<std::uint64_t>* times_;
    const std::string* values_;
    std::size_t width_;
  };

  ChangeList changes(int var) const {
    const Track& tr = tracks_[static_cast<std::size_t>(var)];
    return ChangeList(tr.times, tr.values, width_of(var));
  }

  std::uint64_t max_time() const { return max_time_; }

  // Forward iterator over one variable's change list. value_at(t) with
  // non-decreasing t is amortized O(1) per call over a full sweep — the
  // trace-analysis fast path (STBA's merge walks one cursor per field).
  class Cursor {
   public:
    // Sentinel returned by next_change_time() when no change lies ahead.
    static constexpr std::uint64_t kNoChange = ~std::uint64_t{0};

    // Settled value at time `t`. Calls must use non-decreasing `t`;
    // rewinding requires a fresh cursor.
    std::string_view value_at(std::uint64_t t) {
      while (pos_ < n_ && times_[pos_] <= t) ++pos_;
      return pos_ == 0 ? zero_
                       : std::string_view(values_ + (pos_ - 1) * width_,
                                          width_);
    }

    // Time of the next change strictly after the last value_at() query
    // (or of the first change, before any query); kNoChange when exhausted.
    std::uint64_t next_change_time() const {
      return pos_ < n_ ? times_[pos_] : kNoChange;
    }

    // Number of changes at or before the last queried time.
    std::size_t consumed() const { return pos_; }

   private:
    friend class Trace;
    Cursor(const std::vector<std::uint64_t>& times, const std::string& values,
           std::size_t width, std::string_view zero)
        : times_(times.data()),
          values_(values.data()),
          n_(times.size()),
          width_(width),
          zero_(zero) {}

    const std::uint64_t* times_;
    const char* values_;
    std::size_t n_;
    std::size_t width_;
    std::string_view zero_;  // all-zero value for t < first change
    std::size_t pos_ = 0;    // changes applied so far
  };

  Cursor cursor(int var) const {
    const Track& tr = tracks_[static_cast<std::size_t>(var)];
    return Cursor(tr.times, tr.values, width_of(var), zero_of(var));
  }

  // Same variables (names, widths, ids), same change lists, same max_time.
  bool operator==(const Trace& o) const;

 private:
  friend class Recorder;

  // One variable's packed change list: change k happened at times[k] and
  // holds values[k * width, (k + 1) * width).
  struct Track {
    std::vector<std::uint64_t> times;
    std::string values;
  };

  std::size_t width_of(int var) const {
    return static_cast<std::size_t>(vars_[static_cast<std::size_t>(var)].width);
  }
  std::string_view zero_of(int var) const {
    return std::string_view(zeros_).substr(0, width_of(var));
  }
  // Sizes zeros_ for the widest variable; called once vars_ is final.
  void finish_vars();

  std::vector<Var> vars_;
  std::vector<Track> tracks_;
  std::string zeros_;  // widest variable's all-zero value; prefixes serve all
  std::uint64_t max_time_ = 0;
};

}  // namespace crve::vcd

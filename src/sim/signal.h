// Two-phase signals for the cycle-based simulation kernel.
//
// A Signal<T> holds a current and a next value. Processes read the current
// value and write the next one; the kernel commits writes between process
// evaluations (register semantics for clocked processes, delta-cycle
// settling for combinational ones). This mirrors the VHDL/SystemC signal
// model the paper's testbenches rely on.
//
// Per-signal kernel state (two-phase values for bool/u64 signals, dirty and
// changed flags) lives in a packed SignalArena owned by the Context and
// indexed by SignalBase::index(), so the hot commit/settle loops walk
// contiguous vectors instead of chasing per-object storage. The arena
// also carries the elaboration-time read/write instrumentation the compiled
// schedule uses for dependency discovery (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"

namespace crve::sim {

class Context;

// Packed per-signal kernel state, indexed by SignalBase::index() (flags,
// dirty list) and by a separately allocated value slot (two-phase cur/next
// storage for bool and u64 signals; Bits payloads stay in the signal
// object). Owned by the Context; signals keep a stable pointer.
class SignalArena {
 public:
  static constexpr std::uint8_t kDirtyFlag = 1;      // pending uncommitted write
  static constexpr std::uint8_t kInChangedFlag = 2;  // in this cycle's changed-set

  int add_signal() {
    flags.push_back(0);
    read_seen.push_back(0);
    write_seen.push_back(0);
    return static_cast<int>(flags.size()) - 1;
  }
  int add_slot() {
    cur.push_back(0);
    next.push_back(0);
    return static_cast<int>(cur.size()) - 1;
  }

  // --- discovery instrumentation (elaboration only) ----------------------
  void begin_recording() {
    recording = true;
    reads.clear();
    writes.clear();
  }
  void end_recording() {
    recording = false;
    for (const int i : reads) read_seen[static_cast<std::size_t>(i)] = 0;
    for (const int i : writes) write_seen[static_cast<std::size_t>(i)] = 0;
  }
  void note_read(int index) {
    auto& seen = read_seen[static_cast<std::size_t>(index)];
    if (!seen) {
      seen = 1;
      reads.push_back(index);
    }
  }
  void note_write(int index) {
    auto& seen = write_seen[static_cast<std::size_t>(index)];
    if (!seen) {
      seen = 1;
      writes.push_back(index);
    }
  }

  // Indexed by SignalBase::index().
  std::vector<std::uint8_t> flags;
  std::vector<int> dirty;  // indices with kDirtyFlag set, insertion order

  // Indexed by value slot (bool/u64 signals only; bools stored as 0/1).
  std::vector<std::uint64_t> cur;
  std::vector<std::uint64_t> next;

  bool recording = false;
  std::vector<int> reads;   // current process's recorded read-set
  std::vector<int> writes;  // current process's recorded write-set
  std::vector<std::uint8_t> read_seen;
  std::vector<std::uint8_t> write_seen;
};

class SignalBase {
 public:
  SignalBase(Context& ctx, std::string name, int width);
  virtual ~SignalBase() = default;

  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  const std::string& name() const { return name_; }
  // Declared width in bits, fixed for the signal's lifetime (VCD needs it).
  int width() const { return width_; }

  // Position in Context::signals(), fixed at registration. Tracers use it
  // to address per-signal state from the kernel's changed-set.
  int index() const { return index_; }

  // Moves the pending next value into the current one. Returns whether the
  // visible value changed. Called by the kernel only.
  virtual bool commit() = 0;

  // Appends the current value to `out` as MSB-first binary, exactly
  // width() chars, without allocating. Hot tracers format into a reusable
  // buffer through this instead of materializing per-cycle strings.
  virtual void append_vcd(std::string& out) const = 0;

  // Current value as an MSB-first binary string of exactly width() chars.
  // Convenience wrapper over append_vcd() for cold paths and tests.
  std::string vcd_value() const {
    std::string s;
    s.reserve(static_cast<std::size_t>(width_));
    append_vcd(s);
    return s;
  }

 protected:
  // Read hook: during elaboration-time discovery the arena records which
  // signals the running process touched; outside discovery this is one
  // well-predicted branch.
  void note_read() const {
    if (arena_->recording) arena_->note_read(index_);
  }
  // Same, for writes filtered out at the write site (same-value): the
  // discovery write-set must stay conservative even when no commit is due.
  void note_write() const {
    if (arena_->recording) arena_->note_write(index_);
  }
  // Write hook: flags the signal dirty (deduped via the arena flag byte —
  // no sort needed at commit) and feeds the discovery write-set.
  void mark_dirty() {
    if (arena_->recording) arena_->note_write(index_);
    auto& f = arena_->flags[static_cast<std::size_t>(index_)];
    if (!(f & SignalArena::kDirtyFlag)) {
      f |= SignalArena::kDirtyFlag;
      arena_->dirty.push_back(index_);
    }
  }

  SignalArena* arena_ = nullptr;  // set at registration, stable thereafter

 private:
  friend class Context;
  std::string name_;
  int width_;
  int index_ = -1;
};

namespace detail {

inline void append_vcd(std::string& out, bool v, int /*width*/) {
  out.push_back(v ? '1' : '0');
}

inline void append_vcd(std::string& out, std::uint64_t v, int width) {
  const std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>(width));
  write_bin(out.data() + base, &v, width);
}

inline void append_vcd(std::string& out, const Bits& v, int /*width*/) {
  v.append_bin(out);
}

inline std::uint64_t masked(std::uint64_t v, int width) {
  return width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
}

}  // namespace detail

// Single-bit signal; value stored in the arena's packed slot vectors.
class SignalBool : public SignalBase {
 public:
  SignalBool(Context& ctx, std::string name)
      : SignalBase(ctx, std::move(name), 1), slot_(arena_->add_slot()) {}

  bool read() const {
    note_read();
    return arena_->cur[static_cast<std::size_t>(slot_)] != 0;
  }
  void write(bool v) {
    // Same-value writes are filtered at the write site: drivers that
    // re-assert idle levels every cycle never touch the dirty list, which
    // is what lets the compiled kernel skip their readers entirely.
    auto& next = arena_->next[static_cast<std::size_t>(slot_)];
    const std::uint64_t m = v ? 1u : 0u;
    if (next != m) {
      next = m;
      mark_dirty();
    } else {
      note_write();
    }
  }
  bool commit() override {
    auto& cur = arena_->cur[static_cast<std::size_t>(slot_)];
    const std::uint64_t next = arena_->next[static_cast<std::size_t>(slot_)];
    const bool changed = cur != next;
    cur = next;
    return changed;
  }
  void append_vcd(std::string& out) const override {
    detail::append_vcd(out, arena_->cur[static_cast<std::size_t>(slot_)] != 0,
                       1);
  }

 private:
  int slot_;
};

// Unsigned signal of declared width (1..64 bits). Writes are masked.
class SignalU64 : public SignalBase {
 public:
  SignalU64(Context& ctx, std::string name, int width)
      : SignalBase(ctx, std::move(name), width), slot_(arena_->add_slot()) {
    if (width < 1 || width > 64) {
      throw std::invalid_argument("SignalU64 width out of range");
    }
  }

  std::uint64_t read() const {
    note_read();
    return arena_->cur[static_cast<std::size_t>(slot_)];
  }
  void write(std::uint64_t v) {
    auto& next = arena_->next[static_cast<std::size_t>(slot_)];
    const std::uint64_t m = detail::masked(v, width());
    if (next != m) {
      next = m;
      mark_dirty();
    } else {
      note_write();
    }
  }
  bool commit() override {
    auto& cur = arena_->cur[static_cast<std::size_t>(slot_)];
    const std::uint64_t next = arena_->next[static_cast<std::size_t>(slot_)];
    const bool changed = cur != next;
    cur = next;
    return changed;
  }
  void append_vcd(std::string& out) const override {
    detail::append_vcd(out, arena_->cur[static_cast<std::size_t>(slot_)],
                       width());
  }

 private:
  int slot_;
};

// Wide-data signal; the written Bits value must match the declared width.
// The payload stays in the signal object (variable width), only the kernel
// bookkeeping lives in the arena.
class SignalBits : public SignalBase {
 public:
  SignalBits(Context& ctx, std::string name, int width)
      : SignalBase(ctx, std::move(name), width),
        cur_(width),
        next_(width) {}

  const Bits& read() const {
    note_read();
    return cur_;
  }
  void write(const Bits& v) {
    if (v.width() != width()) {
      throw std::invalid_argument("SignalBits::write: width mismatch on " +
                                  name());
    }
    if (next_ != v) {
      next_ = v;
      mark_dirty();
    } else {
      note_write();
    }
  }
  bool commit() override {
    // Compare first: skip the wide-data copy when the value is unchanged.
    if (cur_ == next_) return false;
    cur_ = next_;
    return true;
  }
  void append_vcd(std::string& out) const override { cur_.append_bin(out); }

 private:
  Bits cur_;
  Bits next_;
};

// Version counter for module-internal state read by a combinational process
// but mutated only by clocked processes (queues, FSM phases, pipeline
// registers). The owning module bumps it whenever such state changes; the
// compiled schedule re-dirties every process registered against the tag, so
// member-state reads participate in change-driven skipping without being
// signals (DESIGN.md §14).
struct StateTag {
  std::uint64_t version = 0;
  void bump() { ++version; }
};

}  // namespace crve::sim

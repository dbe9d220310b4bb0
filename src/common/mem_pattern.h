// Deterministic default-fill pattern for modelled memories, and the sparse
// memory both memory models share.
//
// Untouched bytes read as a hash of (address, pattern seed) so that load
// data is reproducible without pre-initialising memory. The target BFM and
// the TLM reference model must agree bit-for-bit, so the function and the
// memory built on it live here rather than in either of them.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

namespace crve {

inline std::uint8_t default_mem_byte(std::uint32_t addr,
                                     std::uint64_t pattern) {
  std::uint64_t h = addr * 0x9e3779b97f4a7c15ull + pattern;
  h ^= h >> 29;
  return static_cast<std::uint8_t>(h);
}

// Byte-addressed sparse memory stored as 64-byte lines. A line is created on
// its first write, filled with default_mem_byte(); bytes of lines never
// written read as the pattern without being stored. Reads and writes
// remember the last line they found, so a packet's consecutive bytes cost
// one map lookup.
class SparseMemory {
 public:
  static constexpr std::uint32_t kLineBytes = 64;

  explicit SparseMemory(std::uint64_t pattern = 0x5a5a) : pattern_(pattern) {}
  // The read cache points into this object's own lines, so a copy starts
  // with an empty cache instead of one pointing into the source.
  SparseMemory(const SparseMemory& other)
      : pattern_(other.pattern_), lines_(other.lines_) {}
  SparseMemory& operator=(const SparseMemory& other) {
    pattern_ = other.pattern_;
    lines_ = other.lines_;
    cached_ = nullptr;
    return *this;
  }

  std::uint8_t read(std::uint32_t addr) const {
    const std::uint32_t tag = addr / kLineBytes;
    if (cached_ == nullptr || cached_tag_ != tag) {
      const auto it = lines_.find(tag);
      if (it == lines_.end()) return default_mem_byte(addr, pattern_);
      // Map nodes never move, so the pointer survives later rehashes. The
      // line is this object's own: only write() stores through it.
      cached_tag_ = tag;
      cached_ = const_cast<Line*>(&it->second);
    }
    return (*cached_)[addr % kLineBytes];
  }

  void write(std::uint32_t addr, std::uint8_t value) {
    const std::uint32_t tag = addr / kLineBytes;
    if (cached_ == nullptr || cached_tag_ != tag) {
      const auto [it, fresh] = lines_.try_emplace(tag);
      Line& line = it->second;
      if (fresh) {
        for (std::uint32_t i = 0; i < kLineBytes; ++i) {
          line[i] = default_mem_byte(tag * kLineBytes + i, pattern_);
        }
      }
      cached_tag_ = tag;
      cached_ = &line;
    }
    (*cached_)[addr % kLineBytes] = value;
  }

 private:
  using Line = std::array<std::uint8_t, kLineBytes>;

  std::uint64_t pattern_;
  std::unordered_map<std::uint32_t, Line> lines_;  // keyed by addr / 64
  mutable std::uint32_t cached_tag_ = 0;
  mutable Line* cached_ = nullptr;
};

}  // namespace crve

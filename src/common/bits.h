// Fixed-capacity, runtime-width bit vector used for bus data values.
//
// STBus data ports range from 8 to 256 bits, so Bits stores up to 256 bits
// inline (four 64-bit words) with the active width chosen at run time.
// Values are plain, regular value types: copyable, comparable, hashable.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace crve {

// Writes the low `width` bits of the little-endian words `w` to `out` as
// '0'/'1' characters, most significant first: out[0] is bit width-1.
// Eight characters per table lookup (the VCD writer formats every written
// value through here). Bits of w at or above `width` are ignored.
void write_bin(char* out, const std::uint64_t* w, int width);

class Bits {
 public:
  static constexpr int kMaxWidth = 256;
  static constexpr int kWords = kMaxWidth / 64;

  // Zero-width value; valid only as a placeholder.
  constexpr Bits() = default;

  // Zero value of the given width in bits (1..256).
  explicit Bits(int width);

  // Width-bit value with the low 64 bits set to `value` (truncated to width).
  Bits(int width, std::uint64_t value);

  static Bits all_ones(int width);

  // Builds a value from (width + 63) / 64 little-endian words, the layout
  // words() returns; bits at and above `width` are dropped.
  static Bits from_words(const std::uint64_t* w, int width);

  // Builds a value from little-endian bytes; `width` must cover the span.
  static Bits from_bytes(std::span<const std::uint8_t> bytes, int width);

  // Parses a binary string ("1010...", MSB first). Width = string length.
  static Bits from_bin_string(const std::string& s);

  int width() const { return width_; }
  int num_bytes() const { return (width_ + 7) / 8; }
  bool is_zero() const;

  bool bit(int i) const;
  void set_bit(int i, bool v);

  std::uint64_t word(int i) const { return w_[static_cast<std::size_t>(i)]; }
  // The (width + 63) / 64 little-endian words of the value; bits at and
  // above width() are zero.
  const std::uint64_t* words() const { return w_.data(); }
  // Low 64 bits (or fewer when width < 64).
  std::uint64_t to_u64() const { return w_[0]; }

  std::uint8_t byte(int i) const;
  void set_byte(int i, std::uint8_t v);

  // Byte lanes lo .. lo + n - 1 from / into `n` bytes, a word at a time
  // (the packet data path; lane i is byte i of the little-endian words).
  void set_bytes(int lo, std::span<const std::uint8_t> bytes);
  void get_bytes(int lo, std::span<std::uint8_t> out) const;

  // `n`-bit slice starting at bit `lo`.
  Bits slice(int lo, int n) const;
  void set_slice(int lo, const Bits& v);

  // Copies `n` bytes starting at byte `lo` into a new (8*n)-bit value.
  Bits byte_slice(int lo, int n) const;
  void set_byte_slice(int lo, const Bits& v);

  friend bool operator==(const Bits& a, const Bits& b) {
    return a.width_ == b.width_ && a.w_ == b.w_;
  }
  friend bool operator!=(const Bits& a, const Bits& b) { return !(a == b); }

  // MSB-first binary string, exactly `width()` characters.
  std::string to_bin_string() const;
  // Hex string, no prefix, (width+3)/4 digits.
  std::string to_hex_string() const;

  std::size_t hash() const;

 private:
  void mask_top();

  int width_ = 0;
  std::array<std::uint64_t, kWords> w_{};
};

}  // namespace crve

#include "common/bits.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace crve {

namespace {

// kBinChars[b] is byte b as eight '0'/'1' characters, MSB first.
constexpr auto kBinChars = [] {
  std::array<std::array<char, 8>, 256> t{};
  for (int b = 0; b < 256; ++b) {
    for (int i = 0; i < 8; ++i) {
      t[static_cast<std::size_t>(b)][static_cast<std::size_t>(7 - i)] =
          static_cast<char>('0' + ((b >> i) & 1));
    }
  }
  return t;
}();

void check_width(int width) {
  if (width < 1 || width > Bits::kMaxWidth) {
    throw std::invalid_argument("Bits width out of range [1,256]: " +
                                std::to_string(width));
  }
}
}  // namespace

void write_bin(char* out, const std::uint64_t* w, int width) {
  // Bytes start on multiples of 8 bits, so none straddles two words. The
  // top width % 8 bits go first, as the tail of their byte's entry.
  const auto byte_at = [w](int bit) {
    return static_cast<std::size_t>((w[bit / 64] >> (bit % 64)) & 0xffu);
  };
  int bit = width - width % 8;
  if (const int head = width - bit; head != 0) {
    std::memcpy(out, kBinChars[byte_at(bit)].data() + 8 - head,
                static_cast<std::size_t>(head));
    out += head;
  }
  while (bit != 0) {
    bit -= 8;
    std::memcpy(out, kBinChars[byte_at(bit)].data(), 8);
    out += 8;
  }
}

Bits::Bits(int width) : width_(width) { check_width(width); }

Bits::Bits(int width, std::uint64_t value) : width_(width) {
  check_width(width);
  w_[0] = value;
  mask_top();
}

Bits Bits::from_words(const std::uint64_t* w, int width) {
  Bits b(width);
  std::memcpy(b.w_.data(), w, (static_cast<std::size_t>(width) + 63) / 64 * 8);
  b.mask_top();
  return b;
}

Bits Bits::all_ones(int width) {
  Bits b(width);
  for (auto& w : b.w_) w = ~std::uint64_t{0};
  b.mask_top();
  return b;
}

Bits Bits::from_bytes(std::span<const std::uint8_t> bytes, int width) {
  check_width(width);
  if (static_cast<int>(bytes.size()) * 8 > ((width + 7) / 8) * 8) {
    throw std::invalid_argument("Bits::from_bytes: span wider than width");
  }
  Bits b(width);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    b.set_byte(static_cast<int>(i), bytes[i]);
  }
  return b;
}

Bits Bits::from_bin_string(const std::string& s) {
  check_width(static_cast<int>(s.size()));
  Bits b(static_cast<int>(s.size()));
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[s.size() - 1 - i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("Bits::from_bin_string: bad char");
    }
    b.set_bit(static_cast<int>(i), c == '1');
  }
  return b;
}

bool Bits::is_zero() const {
  for (auto w : w_) {
    if (w != 0) return false;
  }
  return true;
}

bool Bits::bit(int i) const {
  if (i < 0 || i >= width_) throw std::out_of_range("Bits::bit");
  return (w_[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1u;
}

void Bits::set_bit(int i, bool v) {
  if (i < 0 || i >= width_) throw std::out_of_range("Bits::set_bit");
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  auto& w = w_[static_cast<std::size_t>(i / 64)];
  w = v ? (w | mask) : (w & ~mask);
}

std::uint8_t Bits::byte(int i) const {
  if (i < 0 || i >= num_bytes()) throw std::out_of_range("Bits::byte");
  return static_cast<std::uint8_t>(w_[static_cast<std::size_t>(i / 8)] >>
                                   ((i % 8) * 8));
}

void Bits::set_byte(int i, std::uint8_t v) {
  if (i < 0 || i >= num_bytes()) throw std::out_of_range("Bits::set_byte");
  auto& w = w_[static_cast<std::size_t>(i / 8)];
  const int sh = (i % 8) * 8;
  w = (w & ~(std::uint64_t{0xff} << sh)) | (std::uint64_t{v} << sh);
  mask_top();
}

namespace {

// Bytes [at, at + n) of the little-endian words `w` fall inside word at / 8
// when n <= 8 - at % 8; returns that word's mask for them.
std::uint64_t lane_mask(int at, std::size_t n) {
  const std::uint64_t low =
      n == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * n)) - 1;
  return low << (8 * (at % 8));
}

}  // namespace

void Bits::set_bytes(int lo, std::span<const std::uint8_t> bytes) {
  const auto n = bytes.size();
  if (lo < 0 || lo + static_cast<int>(n) > num_bytes()) {
    throw std::out_of_range("Bits::set_bytes");
  }
  for (std::size_t k = 0; k < n;) {
    const int at = lo + static_cast<int>(k);
    const std::size_t take =
        std::min<std::size_t>(8 - static_cast<std::size_t>(at % 8), n - k);
    std::uint64_t v = 0;
    for (std::size_t j = 0; j < take; ++j) {
      v |= std::uint64_t{bytes[k + j]} << (8 * j);
    }
    const std::uint64_t mask = lane_mask(at, take);
    auto& w = w_[static_cast<std::size_t>(at / 8)];
    w = (w & ~mask) | (v << (8 * (at % 8)));
    k += take;
  }
  mask_top();
}

void Bits::get_bytes(int lo, std::span<std::uint8_t> out) const {
  const auto n = out.size();
  if (lo < 0 || lo + static_cast<int>(n) > num_bytes()) {
    throw std::out_of_range("Bits::get_bytes");
  }
  for (std::size_t k = 0; k < n;) {
    const int at = lo + static_cast<int>(k);
    const std::size_t take =
        std::min<std::size_t>(8 - static_cast<std::size_t>(at % 8), n - k);
    const std::uint64_t v = w_[static_cast<std::size_t>(at / 8)] >> (8 * (at % 8));
    for (std::size_t j = 0; j < take; ++j) {
      out[k + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
    k += take;
  }
}

Bits Bits::slice(int lo, int n) const {
  if (lo < 0 || n < 1 || lo + n > width_) throw std::out_of_range("Bits::slice");
  Bits r(n);
  for (int i = 0; i < n; ++i) r.set_bit(i, bit(lo + i));
  return r;
}

void Bits::set_slice(int lo, const Bits& v) {
  if (lo < 0 || lo + v.width() > width_) {
    throw std::out_of_range("Bits::set_slice");
  }
  for (int i = 0; i < v.width(); ++i) set_bit(lo + i, v.bit(i));
}

Bits Bits::byte_slice(int lo, int n) const {
  if (lo < 0 || n < 1 || (lo + n) > num_bytes()) {
    throw std::out_of_range("Bits::byte_slice");
  }
  Bits r(n * 8);
  for (int i = 0; i < n; ++i) r.set_byte(i, byte(lo + i));
  return r;
}

void Bits::set_byte_slice(int lo, const Bits& v) {
  const int n = v.num_bytes();
  if (lo < 0 || lo + n > num_bytes()) {
    throw std::out_of_range("Bits::set_byte_slice");
  }
  for (int i = 0; i < n; ++i) set_byte(lo + i, v.byte(i));
}

std::string Bits::to_bin_string() const {
  std::string s(static_cast<std::size_t>(width_), '0');
  write_bin(s.data(), w_.data(), width_);
  return s;
}

std::string Bits::to_hex_string() const {
  static const char* kHex = "0123456789abcdef";
  const int digits = (width_ + 3) / 4;
  std::string s(static_cast<std::size_t>(digits), '0');
  for (int d = 0; d < digits; ++d) {
    int nib = 0;
    for (int b = 0; b < 4; ++b) {
      const int i = d * 4 + b;
      if (i < width_ && bit(i)) nib |= 1 << b;
    }
    s[static_cast<std::size_t>(digits - 1 - d)] = kHex[nib];
  }
  return s;
}

std::size_t Bits::hash() const {
  std::size_t h = static_cast<std::size_t>(width_) * 0x9e3779b97f4a7c15ull;
  for (auto w : w_) h = (h ^ w) * 0x100000001b3ull;
  return h;
}

void Bits::mask_top() {
  const int rem = width_ % 64;
  const int top = width_ / 64;
  if (rem != 0) {
    w_[static_cast<std::size_t>(top)] &= (std::uint64_t{1} << rem) - 1;
    for (int i = top + 1; i < kWords; ++i) w_[static_cast<std::size_t>(i)] = 0;
  } else {
    for (int i = top; i < kWords; ++i) w_[static_cast<std::size_t>(i)] = 0;
  }
}

}  // namespace crve

// Unit tests for the Bits value type.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"

namespace crve {
namespace {

TEST(Bits, DefaultIsZeroWidth) {
  Bits b;
  EXPECT_EQ(b.width(), 0);
}

TEST(Bits, ConstructZeroValue) {
  Bits b(32);
  EXPECT_EQ(b.width(), 32);
  EXPECT_TRUE(b.is_zero());
  EXPECT_EQ(b.to_u64(), 0u);
}

TEST(Bits, ConstructWithValueMasksToWidth) {
  Bits b(8, 0x1ff);
  EXPECT_EQ(b.to_u64(), 0xffu);
}

TEST(Bits, WidthBoundsChecked) {
  EXPECT_THROW(Bits(0), std::invalid_argument);
  EXPECT_THROW(Bits(257), std::invalid_argument);
  EXPECT_NO_THROW(Bits(256));
  EXPECT_NO_THROW(Bits(1));
}

TEST(Bits, AllOnes) {
  Bits b = Bits::all_ones(10);
  EXPECT_EQ(b.to_u64(), 0x3ffu);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(b.bit(i));
}

TEST(Bits, AllOnes256) {
  Bits b = Bits::all_ones(256);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.word(i), ~std::uint64_t{0});
}

TEST(Bits, SetGetBit) {
  Bits b(65);
  b.set_bit(64, true);
  EXPECT_TRUE(b.bit(64));
  EXPECT_FALSE(b.bit(63));
  b.set_bit(64, false);
  EXPECT_TRUE(b.is_zero());
}

TEST(Bits, BitRangeChecked) {
  Bits b(8);
  EXPECT_THROW(b.bit(8), std::out_of_range);
  EXPECT_THROW(b.set_bit(-1, true), std::out_of_range);
}

TEST(Bits, ByteAccess) {
  Bits b(32);
  b.set_byte(2, 0xab);
  EXPECT_EQ(b.byte(2), 0xab);
  EXPECT_EQ(b.to_u64(), 0xab0000u);
  EXPECT_EQ(b.num_bytes(), 4);
  EXPECT_THROW(b.byte(4), std::out_of_range);
}

TEST(Bits, ByteAccessCrossesWords) {
  Bits b(128);
  b.set_byte(9, 0x7e);
  EXPECT_EQ(b.byte(9), 0x7e);
  EXPECT_EQ(b.word(1), 0x7e00ull);
}

// The word-at-a-time lane copies agree with byte-by-byte access for every
// offset and length, across word boundaries, and leave other lanes alone.
TEST(Bits, SetGetBytesMatchByteAccess) {
  Rng rng(9);
  for (int lo = 0; lo < 32; ++lo) {
    for (int n = 0; lo + n <= 32; ++n) {
      Bits b(256, 0);
      for (int i = 0; i < 32; ++i) {
        b.set_byte(i, static_cast<std::uint8_t>(rng.next_u64()));
      }
      Bits want = b;
      std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        bytes[static_cast<std::size_t>(k)] =
            static_cast<std::uint8_t>(rng.next_u64());
        want.set_byte(lo + k, bytes[static_cast<std::size_t>(k)]);
      }
      b.set_bytes(lo, bytes);
      EXPECT_EQ(b, want) << lo << "+" << n;
      std::vector<std::uint8_t> back(static_cast<std::size_t>(n));
      b.get_bytes(lo, back);
      EXPECT_EQ(back, bytes) << lo << "+" << n;
    }
  }
  Bits narrow(32);
  const std::uint8_t five[5] = {};
  EXPECT_THROW(narrow.set_bytes(0, five), std::out_of_range);
  std::uint8_t out[2];
  EXPECT_THROW(narrow.get_bytes(3, out), std::out_of_range);
}

TEST(Bits, FromBytes) {
  const std::uint8_t raw[] = {0x11, 0x22, 0x33};
  Bits b = Bits::from_bytes(raw, 24);
  EXPECT_EQ(b.to_u64(), 0x332211u);
}

TEST(Bits, BinStringRoundTrip) {
  Bits b(12, 0xa5f);
  EXPECT_EQ(b.to_bin_string(), "101001011111");
  EXPECT_EQ(Bits::from_bin_string("101001011111"), b);
}

TEST(Bits, BinStringRejectsBadChars) {
  EXPECT_THROW(Bits::from_bin_string("10x1"), std::invalid_argument);
}

TEST(Bits, HexString) {
  EXPECT_EQ(Bits(16, 0xbeef).to_hex_string(), "beef");
  EXPECT_EQ(Bits(12, 0xbe).to_hex_string(), "0be");
  EXPECT_EQ(Bits(1, 1).to_hex_string(), "1");
}

TEST(Bits, Slice) {
  Bits b(32, 0xdeadbeef);
  EXPECT_EQ(b.slice(0, 16).to_u64(), 0xbeefu);
  EXPECT_EQ(b.slice(16, 16).to_u64(), 0xdeadu);
  EXPECT_THROW(b.slice(20, 16), std::out_of_range);
}

TEST(Bits, SetSlice) {
  Bits b(32);
  b.set_slice(8, Bits(8, 0xcd));
  EXPECT_EQ(b.to_u64(), 0xcd00u);
}

TEST(Bits, ByteSlice) {
  Bits b(64, 0x1122334455667788ull);
  Bits s = b.byte_slice(2, 3);
  EXPECT_EQ(s.width(), 24);
  EXPECT_EQ(s.to_u64(), 0x445566u);
  Bits c(64);
  c.set_byte_slice(1, s);
  EXPECT_EQ(c.to_u64(), 0x44556600ull);
}

TEST(Bits, EqualityIncludesWidth) {
  EXPECT_NE(Bits(8, 5), Bits(16, 5));
  EXPECT_EQ(Bits(8, 5), Bits(8, 5));
}

TEST(Bits, HashDiffersForDifferentValues) {
  EXPECT_NE(Bits(32, 1).hash(), Bits(32, 2).hash());
  EXPECT_NE(Bits(8, 1).hash(), Bits(16, 1).hash());
}

TEST(Bits, WideValueMaskedOnSetByte) {
  Bits b(12);
  b.set_byte(1, 0xff);  // only 4 bits of byte 1 are inside the width
  EXPECT_EQ(b.to_u64(), 0xf00u);
}

class BitsWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitsWidthSweep, OnesRoundTripThroughStrings) {
  const int w = GetParam();
  const Bits ones = Bits::all_ones(w);
  EXPECT_EQ(Bits::from_bin_string(ones.to_bin_string()), ones);
  const Bits zero(w);
  EXPECT_EQ(Bits::from_bin_string(zero.to_bin_string()), zero);
}

TEST_P(BitsWidthSweep, ByteWritesStayInWidth) {
  const int w = GetParam();
  Bits b(w);
  for (int i = 0; i < b.num_bytes(); ++i) b.set_byte(i, 0xff);
  EXPECT_EQ(b, Bits::all_ones(w));
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsWidthSweep,
                         ::testing::Values(1, 7, 8, 9, 31, 32, 33, 63, 64, 65,
                                           127, 128, 129, 255, 256));

// MSB-first text of `b` built one checked bit() at a time.
std::string per_bit_reference(const Bits& b) {
  std::string s;
  for (int i = b.width() - 1; i >= 0; --i) s.push_back(b.bit(i) ? '1' : '0');
  return s;
}

// The table-driven formatter the VCD writer uses, on u64 signal values at
// every width, on random values with bits set above the width (which it
// must ignore), written after existing text.
TEST(BitsFormat, U64ValuesMatchPerBitReferenceAtEveryWidth) {
  Rng rng(17);
  for (int width = 1; width <= 64; ++width) {
    for (int k = 0; k < 34; ++k) {
      const std::uint64_t v = k == 0   ? 0
                              : k == 1 ? ~std::uint64_t{0}
                                       : rng.next_u64();
      std::string got =
          "pre" + std::string(static_cast<std::size_t>(width), '?');
      write_bin(got.data() + 3, &v, width);
      EXPECT_EQ(got, "pre" + per_bit_reference(Bits(width, v)))
          << "width " << width << " value " << v;
    }
  }
}

TEST(BitsFormat, BitsValuesMatchPerBitReferenceAtEveryWidth) {
  Rng rng(23);
  for (int width = 8; width <= Bits::kMaxWidth; ++width) {
    for (int k = 0; k < 10; ++k) {
      Bits b = k == 0 ? Bits(width) : Bits::all_ones(width);
      if (k > 1) {
        for (int i = 0; i < width; ++i) b.set_bit(i, rng.next_u64() & 1u);
      }
      const std::string want = per_bit_reference(b);
      std::string got =
          "pre" + std::string(static_cast<std::size_t>(width), '?');
      write_bin(got.data() + 3, b.words(), width);
      EXPECT_EQ(got, "pre" + want) << "width " << width;
      EXPECT_EQ(b.to_bin_string(), want) << "width " << width;
    }
  }
}

}  // namespace
}  // namespace crve

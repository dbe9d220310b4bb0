// Stable ctest labels for plain value-parameter structs.
//
// gtest labels a value parameter that has no PrintTo with a dump of its
// bytes, padding included ("12-byte object <00-00 00-00 ...>"), and
// padding left uninitialised makes such a label differ from build to
// build. print_zero_padded prints the same dump with every padding byte
// zero: it copies the named members into a zeroed image of the struct, so
// a label whose padding happened to be zero keeps its old text.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace crve::test {

// `members` must name every member of T.
template <typename T, typename... M>
void print_zero_padded(const T& value, std::ostream* os, M T::*... members) {
  unsigned char image[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  auto copy = [&](const auto& member) {
    const auto* field = reinterpret_cast<const unsigned char*>(&member);
    std::memcpy(image + (field - base), field, sizeof member);
  };
  (copy(value.*members), ...);
  // gtest's byte-dump format: bytes in pairs, '-' within, ' ' between.
  *os << sizeof(T) << "-byte object <";
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", image[i]);
    *os << hex;
  }
  *os << '>';
}

}  // namespace crve::test

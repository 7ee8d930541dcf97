#include "util/bits.hpp"

#include <gtest/gtest.h>

namespace fpgafu::bits {
namespace {

TEST(Bits, Crc16TableMatchesBitSerialOnEveryByte) {
  // Every byte against every CRC high byte (the only part of the register
  // the table index sees), with a varying low byte.
  for (unsigned hi = 0; hi < 256; ++hi) {
    const auto crc = static_cast<std::uint16_t>((hi << 8) | ((hi * 37) & 0xff));
    for (unsigned b = 0; b < 256; ++b) {
      const auto byte = static_cast<std::uint8_t>(b);
      ASSERT_EQ(crc16_byte_lut(crc, byte), crc16_byte(crc, byte))
          << "crc " << crc << " byte " << b;
    }
  }
  static_assert(crc16_byte_lut(0xffff, 0x31) == crc16_byte(0xffff, 0x31));
}

TEST(Bits, MaskWidths) {
  EXPECT_EQ(mask(0), 0u);
  EXPECT_EQ(mask(1), 1u);
  EXPECT_EQ(mask(8), 0xffu);
  EXPECT_EQ(mask(32), 0xffffffffu);
  EXPECT_EQ(mask(63), 0x7fffffffffffffffu);
  EXPECT_EQ(mask(64), ~std::uint64_t{0});
}

TEST(Bits, FieldExtract) {
  const std::uint64_t w = 0xdeadbeefcafef00dULL;
  EXPECT_EQ(field(w, 63, 56), 0xdeu);
  EXPECT_EQ(field(w, 7, 0), 0x0du);
  EXPECT_EQ(field(w, 31, 0), 0xcafef00du);
  EXPECT_EQ(field(w, 63, 0), w);
}

TEST(Bits, WithFieldRoundTrip) {
  std::uint64_t w = 0;
  w = with_field(w, 63, 56, 0xab);
  w = with_field(w, 15, 8, 0xcd);
  EXPECT_EQ(field(w, 63, 56), 0xabu);
  EXPECT_EQ(field(w, 15, 8), 0xcdu);
  // Overwriting a field does not disturb neighbours.
  w = with_field(w, 15, 8, 0x11);
  EXPECT_EQ(field(w, 63, 56), 0xabu);
  EXPECT_EQ(field(w, 15, 8), 0x11u);
  // Values wider than the field are truncated.
  w = with_field(w, 11, 8, 0xff);
  EXPECT_EQ(field(w, 11, 8), 0xfu);
  EXPECT_EQ(field(w, 15, 12), 0x1u);
}

TEST(Bits, SingleBit) {
  EXPECT_TRUE(bit(0x8000000000000000u, 63));
  EXPECT_FALSE(bit(0x8000000000000000u, 62));
  EXPECT_EQ(with_bit(0, 5, true), 32u);
  EXPECT_EQ(with_bit(0xffu, 0, false), 0xfeu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xff, 8), -1);
  EXPECT_EQ(sign_extend(0x7f, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xffffffff, 32), -1);
  EXPECT_EQ(sign_extend(0x00000001, 32), 1);
}

TEST(Bits, Clog2) {
  EXPECT_EQ(clog2(1), 0u);
  EXPECT_EQ(clog2(2), 1u);
  EXPECT_EQ(clog2(3), 2u);
  EXPECT_EQ(clog2(4), 2u);
  EXPECT_EQ(clog2(5), 3u);
  EXPECT_EQ(clog2(1024), 10u);
  EXPECT_EQ(clog2(1025), 11u);
}

TEST(Bits, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1u << 20));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Bits, FitsUnsigned) {
  EXPECT_TRUE(fits_unsigned(255, 8));
  EXPECT_FALSE(fits_unsigned(256, 8));
  EXPECT_TRUE(fits_unsigned(~std::uint64_t{0}, 64));
}

TEST(Bits, PopcountWindowed) {
  EXPECT_EQ(popcount(0xff, 4), 4u);
  EXPECT_EQ(popcount(0xff, 64), 8u);
  EXPECT_EQ(popcount(0, 64), 0u);
}

}  // namespace
}  // namespace fpgafu::bits

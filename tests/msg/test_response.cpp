#include "msg/response.hpp"

#include <gtest/gtest.h>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace fpgafu::msg {
namespace {

TEST(Response, LinkWordRoundTrip) {
  Xoshiro256 rng(21);
  const Response::Type types[] = {Response::Type::kData, Response::Type::kFlags,
                                  Response::Type::kSyncDone,
                                  Response::Type::kError};
  for (int i = 0; i < 5000; ++i) {
    Response r;
    r.type = types[rng.below(4)];
    r.code = static_cast<std::uint8_t>(rng.below(256));
    r.seq = static_cast<std::uint16_t>(rng.below(65536));
    r.burst = static_cast<std::uint16_t>(rng.below(256));
    r.payload = rng.next();
    const auto words = r.to_link_words();
    EXPECT_TRUE(Response::frame_ok(words));
    EXPECT_EQ(Response::from_link_words(words), r);
  }
}

/// check_word folds its CRC with the lookup table; it must equal the
/// bit-serial CRC-16 of the same 14 bytes (header, payload, burst, MSB
/// first) on arbitrary frames.
TEST(Response, CheckWordMatchesTheBitSerialCrc) {
  Xoshiro256 rng(20100419);
  for (int i = 0; i < 4000; ++i) {
    const auto header = static_cast<LinkWord>(rng.next());
    const auto hi = static_cast<LinkWord>(rng.next());
    const auto lo = static_cast<LinkWord>(rng.next());
    const auto burst = static_cast<std::uint16_t>(rng.below(65536));
    std::uint16_t crc = 0xffff;
    for (const LinkWord w : {header, hi, lo}) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        crc = bits::crc16_byte(crc, static_cast<std::uint8_t>(w >> shift));
      }
    }
    crc = bits::crc16_byte(crc, static_cast<std::uint8_t>(burst >> 8));
    crc = bits::crc16_byte(crc, static_cast<std::uint8_t>(burst));
    ASSERT_EQ(Response::check_word(header, hi, lo, burst),
              (static_cast<LinkWord>(burst) << 16) | crc)
        << "frame " << i;
  }
}

TEST(Response, HeaderLayout) {
  Response r;
  r.type = Response::Type::kError;
  r.code = 0x12;
  r.seq = 0x3456;
  r.burst = 0x789a;
  r.payload = 0xaabbccdd00112233ULL;
  const auto words = r.to_link_words();
  EXPECT_EQ(words[0], 0x7f123456u);
  EXPECT_EQ(words[1], 0xaabbccddu);
  EXPECT_EQ(words[2], 0x00112233u);
  // Check word: burst index in the high half, CRC-16 in the low half.
  EXPECT_EQ(words[3] >> 16, 0x789au);
  EXPECT_EQ(words[3],
            Response::check_word(words[0], words[1], words[2], 0x789a));
}

TEST(Response, SingleBitCorruptionFailsTheCheck) {
  Xoshiro256 rng(77);
  for (int i = 0; i < 2000; ++i) {
    Response r;
    r.type = Response::Type::kData;
    r.seq = static_cast<std::uint16_t>(rng.below(65536));
    r.burst = static_cast<std::uint16_t>(rng.below(16));
    r.payload = rng.next();
    auto words = r.to_link_words();
    words[rng.below(4)] ^= LinkWord{1} << rng.below(32);
    EXPECT_FALSE(Response::frame_ok(words));
  }
}

TEST(Response, TornFrameFailsTheCheck) {
  // A dropped link word shifts the window by one: the deframer sees the
  // tail of one frame followed by the head of the next.  That misaligned
  // window must not check out.
  Response a, b;
  a.type = Response::Type::kData;
  a.seq = 1;
  a.payload = 0x1111111122222222ULL;
  b.type = Response::Type::kData;
  b.seq = 2;
  b.payload = 0x3333333344444444ULL;
  const auto wa = a.to_link_words();
  const auto wb = b.to_link_words();
  // Window starting at wa[1] (wa[0] was dropped in flight).
  const std::array<LinkWord, 4> torn{wa[1], wa[2], wa[3], wb[0]};
  EXPECT_FALSE(Response::frame_ok(torn));
}

TEST(Response, ToStringNamesType) {
  Response r;
  r.type = Response::Type::kFlags;
  r.seq = 7;
  const std::string s = to_string(r);
  EXPECT_NE(s.find("FLAGS"), std::string::npos);
  EXPECT_NE(s.find("seq=7"), std::string::npos);
}

}  // namespace
}  // namespace fpgafu::msg

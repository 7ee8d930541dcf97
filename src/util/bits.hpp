#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/error.hpp"

/// Bit-manipulation helpers used by the instruction codec, the register
/// transfer machine and the functional units.  All helpers operate on
/// uint64_t words; field positions follow the [hi:lo] inclusive convention
/// used in the paper's encoding tables.
namespace fpgafu::bits {

/// Mask with `width` low bits set.  width == 64 yields all-ones.
constexpr std::uint64_t mask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

/// Extract the inclusive bit range [hi:lo] from `word`.
constexpr std::uint64_t field(std::uint64_t word, unsigned hi, unsigned lo) {
  return (word >> lo) & mask(hi - lo + 1);
}

/// Return `word` with bit range [hi:lo] replaced by the low bits of `value`.
constexpr std::uint64_t with_field(std::uint64_t word, unsigned hi, unsigned lo,
                                   std::uint64_t value) {
  const std::uint64_t m = mask(hi - lo + 1);
  return (word & ~(m << lo)) | ((value & m) << lo);
}

/// Test a single bit.
constexpr bool bit(std::uint64_t word, unsigned pos) {
  return ((word >> pos) & 1u) != 0;
}

/// Return `word` with bit `pos` set to `value`.
constexpr std::uint64_t with_bit(std::uint64_t word, unsigned pos, bool value) {
  return value ? (word | (std::uint64_t{1} << pos))
               : (word & ~(std::uint64_t{1} << pos));
}

/// Sign-extend the low `width` bits of `word` to a signed 64-bit value.
constexpr std::int64_t sign_extend(std::uint64_t word, unsigned width) {
  const std::uint64_t m = mask(width);
  const std::uint64_t v = word & m;
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  return static_cast<std::int64_t>((v ^ sign) - sign);
}

/// True iff `value` fits in `width` unsigned bits.
constexpr bool fits_unsigned(std::uint64_t value, unsigned width) {
  return width >= 64 || value <= mask(width);
}

/// CRC-16/CCITT-FALSE step (polynomial 0x1021, MSB first).  Used by the
/// host link framing: small enough to synthesise as a byte-serial LFSR next
/// to the message serialiser, strong enough to catch the single-bit upsets
/// and torn frames the transport layer must detect.
constexpr std::uint16_t crc16_byte(std::uint16_t crc, std::uint8_t byte) {
  crc = static_cast<std::uint16_t>(crc ^ (static_cast<std::uint16_t>(byte) << 8));
  for (int i = 0; i < 8; ++i) {
    crc = (crc & 0x8000u) != 0
              ? static_cast<std::uint16_t>((unsigned{crc} << 1) ^ 0x1021u)
              : static_cast<std::uint16_t>(crc << 1);
  }
  return crc;
}

/// Fold a 32-bit word into a CRC-16, most significant byte first (matching
/// the link's MSW-first transmission order).
constexpr std::uint16_t crc16_word(std::uint16_t crc, std::uint32_t word) {
  crc = crc16_byte(crc, static_cast<std::uint8_t>(word >> 24));
  crc = crc16_byte(crc, static_cast<std::uint8_t>(word >> 16));
  crc = crc16_byte(crc, static_cast<std::uint8_t>(word >> 8));
  crc = crc16_byte(crc, static_cast<std::uint8_t>(word));
  return crc;
}

/// ceil(log2(n)) for n >= 1: the number of address bits needed to index n
/// items.  Mirrors the VHDL idiom used for sizing register-number fields.
constexpr unsigned clog2(std::uint64_t n) {
  unsigned b = 0;
  std::uint64_t v = 1;
  while (v < n) {
    v <<= 1;
    ++b;
  }
  return b;
}

/// True iff n is a power of two (n >= 1).
constexpr bool is_pow2(std::uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Population count of `word` limited to the low `width` bits.
inline unsigned popcount(std::uint64_t word, unsigned width = 64) {
  return static_cast<unsigned>(std::popcount(word & mask(width)));
}

/// Sum and carry-out of a `width`-bit addition a + b + carry_in.  The inputs
/// are masked to `width` bits first; works for the full 64-bit case without
/// needing a wider intermediate type.
struct AddResult {
  std::uint64_t sum;
  bool carry;
};

constexpr AddResult add_with_carry(std::uint64_t a, std::uint64_t b,
                                   bool carry_in, unsigned width) {
  const std::uint64_t m = mask(width);
  a &= m;
  b &= m;
  if (width >= 64) {
    const std::uint64_t partial = a + b;
    const bool c1 = partial < a;
    const std::uint64_t sum = partial + (carry_in ? 1 : 0);
    const bool c2 = sum < partial;
    return {sum, c1 || c2};
  }
  const std::uint64_t wide = a + b + (carry_in ? 1 : 0);
  return {wide & m, (wide >> width) != 0};
}

}  // namespace fpgafu::bits

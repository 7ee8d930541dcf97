#include "isa/muldiv.hpp"

#include "util/bits.hpp"

namespace fpgafu::isa::muldiv {

WideProduct umul_wide(Word a, Word b, unsigned width) {
  const Word m = bits::mask(width);
  a &= m;
  b &= m;
  if (width <= 32) {
    const Word p = a * b;  // fits in 64 bits
    return {p & m, (p >> width) & m};
  }
  // 64x64 -> 128 via 32-bit limbs.
  const Word a_lo = a & 0xffffffffu, a_hi = a >> 32;
  const Word b_lo = b & 0xffffffffu, b_hi = b >> 32;
  const Word p0 = a_lo * b_lo;
  const Word p1 = a_lo * b_hi;
  const Word p2 = a_hi * b_lo;
  const Word p3 = a_hi * b_hi;
  // Sum the middle terms with carry tracking.
  const Word mid = (p0 >> 32) + (p1 & 0xffffffffu) + (p2 & 0xffffffffu);
  const Word lo = (p0 & 0xffffffffu) | (mid << 32);
  const Word hi = p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32);
  return {lo, hi};
}

namespace {

/// Arithmetic negate within `width` bits.
Word negate(Word v, unsigned width) {
  return (~v + 1) & bits::mask(width);
}

bool is_negative(Word v, unsigned width) { return bits::bit(v, width - 1); }

}  // namespace

Result evaluate(VarietyCode v, Word a, Word b, unsigned width) {
  const Word m = bits::mask(width);
  a &= m;
  b &= m;
  const auto op = static_cast<Op>(bits::field(v, vc::kOpHi, vc::kOpLo));

  Result r;
  r.write_data = bits::bit(v, vc::kOutputData);
  bool error = false;
  Word value = 0;

  switch (op) {
    case Op::kMul:
      value = umul_wide(a, b, width).lo;
      break;
    case Op::kMulh:
      value = umul_wide(a, b, width).hi;
      break;
    case Op::kSmulh: {
      // |a| * |b| then negate the 2w-bit product if signs differ.
      const bool na = is_negative(a, width), nb = is_negative(b, width);
      const Word ua = na ? negate(a, width) : a;
      const Word ub = nb ? negate(b, width) : b;
      WideProduct p = umul_wide(ua, ub, width);
      if (na != nb) {
        // Two's complement negate of the double-width value {hi, lo}.
        p.lo = negate(p.lo, width);
        p.hi = (~p.hi + (p.lo == 0 ? 1 : 0)) & m;
      }
      value = p.hi;
      break;
    }
    case Op::kDiv:
    case Op::kRem:
      if (b == 0) {
        error = true;
        value = m;  // "undefined by specification" — the model picks all-ones
      } else {
        value = op == Op::kDiv ? a / b : a % b;
      }
      break;
    case Op::kDivMod:
      r.has_second = true;
      if (b == 0) {
        error = true;
        value = m;
        r.second = m;
      } else {
        value = a / b;
        r.second = a % b;
      }
      break;
    case Op::kSdiv:
    case Op::kSrem: {
      const Word min = Word{1} << (width - 1);
      if (b == 0 || (a == min && b == m /* -1 */)) {
        error = true;
        value = m;
      } else {
        const bool na = is_negative(a, width), nb = is_negative(b, width);
        const Word ua = na ? negate(a, width) : a;
        const Word ub = nb ? negate(b, width) : b;
        const Word q = ua / ub;
        const Word rem = ua % ub;
        if (op == Op::kSdiv) {
          value = (na != nb) ? negate(q, width) : q;
        } else {
          value = na ? negate(rem, width) : rem;  // remainder takes the
                                                  // dividend's sign
        }
      }
      break;
    }
  }

  r.value = value & m;
  r.flags = 0;
  r.flags = static_cast<FlagWord>(
      bits::with_bit(r.flags, flag::kZero, r.value == 0));
  r.flags = static_cast<FlagWord>(
      bits::with_bit(r.flags, flag::kNegative, is_negative(r.value, width)));
  r.flags =
      static_cast<FlagWord>(bits::with_bit(r.flags, flag::kError, error));
  return r;
}

}  // namespace fpgafu::isa::muldiv

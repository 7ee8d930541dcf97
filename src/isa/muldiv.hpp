#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/types.hpp"
#include "util/bits.hpp"

namespace fpgafu::isa::muldiv {

/// Multiply/divide unit (function code fc::kMulDiv).
///
/// The thesis motivates the error flag with exactly this unit's hazard:
/// "... condition, e.g. a division by zero.  If this flag is set, the
/// contents of the destination registers (if any) are undefined by
/// specification" (§3.2.1).  Division by zero — and the signed-overflow
/// case MIN/-1 — set flag::kError and leave an unspecified result.
///
/// Hardware-wise the unit is the canonical *multi-cycle* stateless unit:
/// a sequential shift-add multiplier / restoring divider iterating one bit
/// per clock, i.e. the FSM skeleton with `execute_cycles = width`.
namespace vc {
inline constexpr unsigned kOpLo = 0;  ///< bits [2:0]: operation select
inline constexpr unsigned kOpHi = 2;
inline constexpr unsigned kOutputData = 4;
}  // namespace vc

enum class Op : std::uint8_t {
  kMul = 0,   ///< low word of a * b (unsigned; low word equals signed too)
  kMulh = 1,  ///< high word of unsigned a * b
  kSmulh = 2, ///< high word of signed a * b
  kDiv = 3,   ///< unsigned quotient a / b
  kRem = 4,   ///< unsigned remainder a % b
  kSdiv = 5,  ///< signed quotient (truncated toward zero)
  kSrem = 6,  ///< signed remainder (sign of the dividend)
  /// Dual-output divide: quotient to dst1, remainder to the second
  /// destination (aux field) — the restoring divider produces both anyway,
  /// and the thesis' Fig. 2.18 FSM has the "Send Data 1 / Send Data 2"
  /// path to retire them.  Requires dst1 != dst2.
  kDivMod = 7,
};

inline constexpr std::array<Op, 8> kAllOps = {
    Op::kMul, Op::kMulh, Op::kSmulh, Op::kDiv,
    Op::kRem, Op::kSdiv,  Op::kSrem, Op::kDivMod};

constexpr VarietyCode variety(Op op) {
  return static_cast<VarietyCode>(static_cast<std::uint8_t>(op) |
                                  (1u << vc::kOutputData));
}

constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kMul: return "MUL";
    case Op::kMulh: return "MULH";
    case Op::kSmulh: return "SMULH";
    case Op::kDiv: return "DIV";
    case Op::kRem: return "REM";
    case Op::kSdiv: return "SDIV";
    case Op::kSrem: return "SREM";
    case Op::kDivMod: return "DIVMOD";
  }
  return "?";
}

struct Result {
  Word value = 0;
  FlagWord flags = 0;  ///< zero / negative / error (divide-by-zero, MIN/-1)
  bool write_data = false;
  Word value2 = 0;          ///< second result (kDivMod's remainder)
  bool has_second = false;  ///< whether value2 is produced
};

/// True for the varieties whose Result has `has_second` (DIVMOD).  A unit
/// that retires the second result writes a second destination register
/// through a second write-arbiter record, and the dispatcher locks that
/// register at dispatch.
constexpr bool writes_second(VarietyCode variety) {
  return static_cast<Op>(bits::field(variety, vc::kOpHi, vc::kOpLo)) ==
         Op::kDivMod;
}

/// Reference semantics.  The 64x64 -> 128 bit products are built from
/// 32-bit limbs (no compiler extensions), the same decomposition the
/// sequential hardware uses.
Result evaluate(VarietyCode variety, Word a, Word b, unsigned width);

/// Full product of two width-bit unsigned values: {low word, high word}.
struct WideProduct {
  Word lo;
  Word hi;
};
WideProduct umul_wide(Word a, Word b, unsigned width);

}  // namespace fpgafu::isa::muldiv

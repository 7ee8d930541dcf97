#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/types.hpp"

namespace fpgafu::isa::logic {

/// Variety code of the logic unit (reconstruction of thesis Table 3.2).
///
/// The unit applies one 2-input boolean function bitwise across the
/// operands.  In the spirit of the arithmetic unit's derived encoding —
/// and of the FPGA itself — the function is encoded *directly as its truth
/// table* in the low nibble of the variety code: result bit i is
/// `table[(a_i << 1) | b_i]`, exactly an FPGA LUT2 INIT vector.  All 16
/// two-input functions therefore exist; Table 3.2's named operations are
/// particular rows.
namespace vc {
inline constexpr unsigned kTableLo = 0;    ///< bits [3:0]: LUT2 truth table
inline constexpr unsigned kTableHi = 3;
inline constexpr unsigned kOutputData = 4; ///< write result to destination reg
}  // namespace vc

/// Named rows of the reconstructed Table 3.2.
enum class Op : std::uint8_t {
  kAnd,    ///< a & b          table 0b1000
  kOr,     ///< a | b          table 0b1110
  kXor,    ///< a ^ b          table 0b0110
  kNand,   ///< ~(a & b)       table 0b0111
  kNor,    ///< ~(a | b)       table 0b0001
  kXnor,   ///< ~(a ^ b)       table 0b1001
  kNot,    ///< ~b  (second operand, matching NEG's convention) table 0b0101
  kAndn,   ///< a & ~b         table 0b0010  (bit clear)
  kOrn,    ///< a | ~b         table 0b1011
  kPass,   ///< a              table 0b1100  (move through the unit)
  kClear,  ///< 0              table 0b0000
  kSet,    ///< all ones       table 0b1111
};

inline constexpr std::array<Op, 12> kAllOps = {
    Op::kAnd, Op::kOr,  Op::kXor,  Op::kNand, Op::kNor,   Op::kXnor,
    Op::kNot, Op::kAndn, Op::kOrn, Op::kPass, Op::kClear, Op::kSet};

/// Truth table (LUT2 INIT) for a named operation.  Index = (a << 1) | b.
constexpr std::uint8_t truth_table(Op op) {
  switch (op) {
    case Op::kAnd: return 0b1000;
    case Op::kOr: return 0b1110;
    case Op::kXor: return 0b0110;
    case Op::kNand: return 0b0111;
    case Op::kNor: return 0b0001;
    case Op::kXnor: return 0b1001;
    case Op::kNot: return 0b0101;
    case Op::kAndn: return 0b0100;
    case Op::kOrn: return 0b1101;
    case Op::kPass: return 0b1100;
    case Op::kClear: return 0b0000;
    case Op::kSet: return 0b1111;
  }
  return 0;
}

constexpr VarietyCode variety(Op op) {
  return static_cast<VarietyCode>(truth_table(op) | (1u << vc::kOutputData));
}

constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kAnd: return "AND";
    case Op::kOr: return "OR";
    case Op::kXor: return "XOR";
    case Op::kNand: return "NAND";
    case Op::kNor: return "NOR";
    case Op::kXnor: return "XNOR";
    case Op::kNot: return "NOT";
    case Op::kAndn: return "ANDN";
    case Op::kOrn: return "ORN";
    case Op::kPass: return "PASS";
    case Op::kClear: return "CLEAR";
    case Op::kSet: return "SET";
  }
  return "?";
}

/// Reference semantics: bitwise LUT2 application plus zero/negative flags.
Result evaluate(VarietyCode variety, Word a, Word b, unsigned width);

}  // namespace fpgafu::isa::logic

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/types.hpp"

namespace fpgafu::isa::arith {

/// Variety-code control bits of the arithmetic unit, exactly the control
/// columns of thesis Table 3.1.  Every one of the nine instructions is a
/// *derived* combination of these bits around a single adder — the unit
/// contains no per-instruction cases.
namespace vc {
inline constexpr unsigned kUseCarry = 0;     ///< carry-in taken from source flag register
inline constexpr unsigned kFixedCarry = 1;   ///< carry-in forced to 1 (when kUseCarry clear)
inline constexpr unsigned kOutputData = 2;   ///< write the sum to destination register #1
inline constexpr unsigned kFirstZero = 3;    ///< first adder input forced to zero
inline constexpr unsigned kSecondZero = 4;   ///< second adder input forced to zero
inline constexpr unsigned kComplementSecond = 5;  ///< bitwise-complement second adder input
}  // namespace vc

/// The nine instructions of thesis Table 3.1.
enum class Op : std::uint8_t {
  kAdd,   ///< dst = src1 + src2
  kAdc,   ///< dst = src1 + src2 + carry(srcFlag)
  kSub,   ///< dst = src1 - src2              (= src1 + ~src2 + 1)
  kSbb,   ///< dst = src1 + ~src2 + carry(srcFlag)  (ARM borrow convention)
  kInc,   ///< dst = src1 + 1                 (second input zeroed)
  kDec,   ///< dst = src1 - 1                 (second input zeroed + complemented)
  kNeg,   ///< dst = -src2                    (applied to the SECOND operand,
          ///<                                 "for reasons of logic compactness")
  kCmp,   ///< flags of src1 - src2, no data output
  kCmpb,  ///< flags of src1 + ~src2 + carry, no data output
};

inline constexpr std::array<Op, 9> kAllOps = {
    Op::kAdd, Op::kAdc, Op::kSub, Op::kSbb, Op::kInc,
    Op::kDec, Op::kNeg, Op::kCmp, Op::kCmpb};

/// Variety code for each instruction (the row of Table 3.1).
constexpr VarietyCode variety(Op op) {
  auto b = [](unsigned pos) { return VarietyCode(1u << pos); };
  switch (op) {
    case Op::kAdd:
      return b(vc::kOutputData);
    case Op::kAdc:
      return VarietyCode(b(vc::kOutputData) | b(vc::kUseCarry));
    case Op::kSub:
      return VarietyCode(b(vc::kOutputData) | b(vc::kComplementSecond) |
                         b(vc::kFixedCarry));
    case Op::kSbb:
      return VarietyCode(b(vc::kOutputData) | b(vc::kComplementSecond) |
                         b(vc::kUseCarry));
    case Op::kInc:
      return VarietyCode(b(vc::kOutputData) | b(vc::kSecondZero) |
                         b(vc::kFixedCarry));
    case Op::kDec:
      return VarietyCode(b(vc::kOutputData) | b(vc::kSecondZero) |
                         b(vc::kComplementSecond));
    case Op::kNeg:
      return VarietyCode(b(vc::kOutputData) | b(vc::kFirstZero) |
                         b(vc::kComplementSecond) | b(vc::kFixedCarry));
    case Op::kCmp:
      return VarietyCode(b(vc::kComplementSecond) | b(vc::kFixedCarry));
    case Op::kCmpb:
      return VarietyCode(b(vc::kComplementSecond) | b(vc::kUseCarry));
  }
  return 0;
}

constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kAdd: return "ADD";
    case Op::kAdc: return "ADC";
    case Op::kSub: return "SUB";
    case Op::kSbb: return "SBB";
    case Op::kInc: return "INC";
    case Op::kDec: return "DEC";
    case Op::kNeg: return "NEG";
    case Op::kCmp: return "CMP";
    case Op::kCmpb: return "CMPB";
  }
  return "?";
}

/// Reference semantics of the arithmetic datapath: a single `width`-bit
/// adder fed through the variety-code input muxing; flags are
/// carry/zero/negative/overflow.  This is both the
/// golden oracle used by the tests and the combinational core reused by the
/// hardware ArithmeticUnit component.
Result evaluate(VarietyCode variety, Word a, Word b, FlagWord flags_in,
                unsigned width);

}  // namespace fpgafu::isa::arith

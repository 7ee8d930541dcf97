#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/types.hpp"

namespace fpgafu::isa::fp32 {

/// IEEE-754 single-precision floating-point unit (function code
/// fc::kFloat).
///
/// The paper's introduction names floating point as the canonical
/// hardware-accelerated operation ("one example of this is to provide
/// floating point operations in hardware, rather than performing them in
/// software").  This unit is a complete soft-float core built from integer
/// operations only — the same datapath an FPGA implementation would
/// synthesise: unpack, align/normalise shifts, a 24-bit significand
/// adder/multiplier/divider, and round-to-nearest-even with guard/sticky
/// logic.  Results are bit-exact IEEE-754 (including subnormals, signed
/// zeros, infinities and NaN propagation), which the tests verify against
/// the host FPU.
///
/// Flag outputs: kZero (result is ±0), kNegative (sign bit), kOverflow
/// (finite operands produced an infinity), kError (invalid operation or
/// division by zero — the thesis' undefined-destination convention).
namespace vc {
inline constexpr unsigned kOpLo = 0;  ///< bits [2:0]: operation select
inline constexpr unsigned kOpHi = 2;
inline constexpr unsigned kOutputData = 4;
}  // namespace vc

enum class Op : std::uint8_t {
  kFadd = 0,
  kFsub = 1,
  kFmul = 2,
  kFdiv = 3,
  kFcmp = 4,  ///< flags only: kZero = equal, kNegative = a < b, kError = unordered
};

inline constexpr std::array<Op, 5> kAllOps = {Op::kFadd, Op::kFsub, Op::kFmul,
                                              Op::kFdiv, Op::kFcmp};

constexpr VarietyCode variety(Op op) {
  const bool writes = op != Op::kFcmp;
  return static_cast<VarietyCode>(static_cast<std::uint8_t>(op) |
                                  (writes ? (1u << vc::kOutputData) : 0u));
}

constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kFadd: return "FADD";
    case Op::kFsub: return "FSUB";
    case Op::kFmul: return "FMUL";
    case Op::kFdiv: return "FDIV";
    case Op::kFcmp: return "FCMP";
  }
  return "?";
}

/// Evaluate one operation on raw IEEE-754 bit patterns (low 32 bits of the
/// operands and of the result).
Result evaluate(VarietyCode variety, Word a, Word b);

// Low-level soft-float primitives, exposed for the tests.
std::uint32_t soft_add(std::uint32_t a, std::uint32_t b);
std::uint32_t soft_mul(std::uint32_t a, std::uint32_t b);
std::uint32_t soft_div(std::uint32_t a, std::uint32_t b);

}  // namespace fpgafu::isa::fp32

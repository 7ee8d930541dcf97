#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/types.hpp"

namespace fpgafu::isa::trig {

/// Trigonometric unit (function code fc::kTrig) — the paper's third named
/// stateless example ("examples of stateless functional units are
/// arithmetic units, trigonometric function calculators, etc.", §IV-A).
///
/// The datapath is a classic CORDIC rotator: shift-and-add iterations, one
/// arctangent ROM entry per iteration, no multiplier — precisely the
/// structure an FPGA implementation uses, and another natural resident of
/// the FSM skeleton (one iteration per clock).
///
/// Fixed-point conventions (hardware-friendly, no floating point anywhere):
///  * Angles are *binary angular measurement* (BAM): the low 32 bits of the
///    operand are an unsigned turn fraction, full circle = 2^32.  Angle
///    wrap-around is free.
///  * Results are signed Q1.30 in the low 32 bits: sin/cos in [-1, 1]
///    map to [-2^30, 2^30].
namespace vc {
inline constexpr unsigned kOpLo = 0;  ///< bits [2:0]: operation select
inline constexpr unsigned kOpHi = 2;
inline constexpr unsigned kOutputData = 4;
}  // namespace vc

enum class Op : std::uint8_t {
  kSin = 0,  ///< Q1.30 sine of the BAM angle in operand1
  kCos = 1,  ///< Q1.30 cosine
};

inline constexpr std::array<Op, 2> kAllOps = {Op::kSin, Op::kCos};

constexpr VarietyCode variety(Op op) {
  return static_cast<VarietyCode>(static_cast<std::uint8_t>(op) |
                                  (1u << vc::kOutputData));
}

constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kSin: return "SIN";
    case Op::kCos: return "COS";
  }
  return "?";
}

/// Number of CORDIC iterations (one clock each on the FSM skeleton).
inline constexpr unsigned kIterations = 30;

/// Reference semantics: integer-only CORDIC, the result signed Q1.30 in the
/// low 32 bits.
Result evaluate(VarietyCode variety, Word a, Word b);

/// Raw kernel, exposed for the tests: sine and cosine (Q1.30) of a BAM
/// angle.
struct SinCos {
  std::int32_t sin;
  std::int32_t cos;
};
SinCos cordic_sincos(std::uint32_t bam_angle);

}  // namespace fpgafu::isa::trig

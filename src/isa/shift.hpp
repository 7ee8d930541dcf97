#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/types.hpp"

namespace fpgafu::isa::shift {

/// Shift/rotate unit (an *extension* beyond the thesis case studies; the
/// paper's framework explicitly invites adding further stateless units, and
/// a barrel shifter is the canonical third one).  The shift amount comes
/// from the low bits of the second source operand, modulo the word width.
namespace vc {
inline constexpr unsigned kOpLo = 0;       ///< bits [2:0]: operation select
inline constexpr unsigned kOpHi = 2;
inline constexpr unsigned kOutputData = 4;
}  // namespace vc

enum class Op : std::uint8_t {
  kShl = 0,  ///< logical shift left
  kShr = 1,  ///< logical shift right
  kAsr = 2,  ///< arithmetic shift right (sign fills)
  kRol = 3,  ///< rotate left
  kRor = 4,  ///< rotate right
};

inline constexpr std::array<Op, 5> kAllOps = {Op::kShl, Op::kShr, Op::kAsr,
                                              Op::kRol, Op::kRor};

constexpr VarietyCode variety(Op op) {
  return static_cast<VarietyCode>(static_cast<std::uint8_t>(op) |
                                  (1u << vc::kOutputData));
}

constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kShl: return "SHL";
    case Op::kShr: return "SHR";
    case Op::kAsr: return "ASR";
    case Op::kRol: return "ROL";
    case Op::kRor: return "ROR";
  }
  return "?";
}

/// Reference semantics of the barrel shifter; flags are zero / negative /
/// carry (the last bit shifted out).
Result evaluate(VarietyCode variety, Word a, Word amount, unsigned width);

}  // namespace fpgafu::isa::shift

#pragma once

#include <string>

#include "isa/types.hpp"

namespace fpgafu::isa {

/// One decoded 64-bit RTM instruction word.
///
/// Field layout (inclusive bit ranges; see DESIGN.md §4 — a clean
/// reconstruction of the thesis Table 3.1 format, preserving the documented
/// structure: up to three source operands and up to two destinations):
///
/// ```
/// [63:56] function code    [55:48] variety code
/// [47:40] dst flag reg     [39:32] dst reg #1
/// [31:24] src flag reg     [23:16] src reg #2
/// [15:8]  src reg #1       [7:0]   aux / small immediate
/// [31:0]  PUTI imm32 (src_flag:src2:src1:aux, zero-extended)
/// ```
struct Instruction {
  FunctionCode function = 0;
  VarietyCode variety = 0;
  RegNum dst_flag = 0;
  RegNum dst1 = 0;
  RegNum src_flag = 0;
  RegNum src2 = 0;
  RegNum src1 = 0;
  std::uint8_t aux = 0;

  /// PUTI's immediate: bits [31:0] of the word, the four fields it
  /// overlays read as one zero-extended 32-bit value.
  std::uint32_t imm32() const {
    return static_cast<std::uint32_t>(src_flag) << 24 |
           static_cast<std::uint32_t>(src2) << 16 |
           static_cast<std::uint32_t>(src1) << 8 | aux;
  }
  void set_imm32(std::uint32_t v) {
    src_flag = static_cast<RegNum>(v >> 24);
    src2 = static_cast<RegNum>(v >> 16);
    src1 = static_cast<RegNum>(v >> 8);
    aux = static_cast<std::uint8_t>(v);
  }

  /// Pack into the 64-bit instruction word.
  Word encode() const;

  /// Unpack from a 64-bit instruction word.  Total: every word decodes.
  static Instruction decode(Word word);

  bool operator==(const Instruction&) const = default;
};

/// Bit positions of the instruction fields, exported so the benchmark
/// harness can regenerate the encoding tables and tests can cross-check
/// encode() against first principles.
namespace ifield {
inline constexpr unsigned kFunctionHi = 63, kFunctionLo = 56;
inline constexpr unsigned kVarietyHi = 55, kVarietyLo = 48;
inline constexpr unsigned kDstFlagHi = 47, kDstFlagLo = 40;
inline constexpr unsigned kDst1Hi = 39, kDst1Lo = 32;
inline constexpr unsigned kSrcFlagHi = 31, kSrcFlagLo = 24;
inline constexpr unsigned kSrc2Hi = 23, kSrc2Lo = 16;
inline constexpr unsigned kSrc1Hi = 15, kSrc1Lo = 8;
inline constexpr unsigned kAuxHi = 7, kAuxLo = 0;
}  // namespace ifield

/// Render an instruction for logs/disassembly, e.g.
/// `fc=0x10 vc=0x07 dst=r3 f2 src=r1,r2 f0 aux=0`.
std::string to_string(const Instruction& inst);

}  // namespace fpgafu::isa

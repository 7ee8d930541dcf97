#pragma once

#include <cstdint>

/// Fundamental ISA-level types shared by the RTM, the functional units and
/// the host driver.
namespace fpgafu::isa {

/// Register-file data word.  The paper's register file word size is
/// configurable in multiples of 32 bits; this model carries words in a
/// 64-bit container and supports configured widths of 32 and 64 bits
/// (wider words would need a multi-word container and are out of scope —
/// see DESIGN.md §2).
using Word = std::uint64_t;

/// A flag-register word: a small vector of condition flags (the paper's
/// secondary register file "holding vectors of flags").
using FlagWord = std::uint8_t;

/// Register number within the main or flag register file.
using RegNum = std::uint8_t;

/// Function code: selects the functional unit (or the RTM itself) that
/// executes an instruction.  Occupies instruction bits [63:56].
using FunctionCode = std::uint8_t;

/// Variety code: per-unit operation modifier bits, instruction bits [55:48].
/// For the arithmetic unit these are the Table 3.1 control columns; for the
/// logic unit the low nibble is the 2-input truth table (an FPGA LUT2 init).
using VarietyCode = std::uint8_t;

/// The operands an instruction's mnemonic takes, in assembler order: `rD`
/// is the destination, `rA`/`rB` the sources, `fD`/`fS` the destination and
/// source flag registers, `n` an 8-bit count or immediate in aux.  Every
/// unit instruction also takes an optional trailing `fD`.
enum class Operands : std::uint8_t {
  kDab,   ///< rD, rA, rB
  kDabS,  ///< rD, rA, rB, fS  (ADC, SBB)
  kDa,    ///< rD, rA          (INC, DEC, PASS, SIN, COS; COPY)
  kDb,    ///< rD, rB          (NEG, NOT: second-operand ops)
  kAb,    ///< rA, rB          (CMP, FCMP: flags only)
  kAbS,   ///< rA, rB, fS      (CMPB)
  kD,     ///< rD              (CLEAR, SET)
  kQRab,  ///< rQ, rR, rA, rB  (DIVMOD: the remainder register rides in aux)
  kNone,  ///<                 (NOP, SYNC)
  kA,     ///< rA              (GET)
  kS,     ///< fS              (GETF)
  kFS,    ///< fD, fS          (COPYF)
  kDw,    ///< rD, #imm64      (PUT: the value rides in a payload word)
  kDi,    ///< rD, imm32       (PUTI)
  kDn,    ///< rD, n           (PUTV)
  kAn,    ///< rA, n           (GETV)
  kFn,    ///< fD, n           (PUTF)
};

/// Flag bit positions within a FlagWord.
namespace flag {
inline constexpr unsigned kCarry = 0;     ///< carry out (ARM convention: subtract sets carry when no borrow)
inline constexpr unsigned kZero = 1;      ///< result == 0
inline constexpr unsigned kNegative = 2;  ///< result MSB
inline constexpr unsigned kOverflow = 3;  ///< signed overflow
inline constexpr unsigned kError = 4;     ///< unit-defined error (destination contents undefined when set)
}  // namespace flag

/// The datapath output of one operation: what every stock unit's
/// `evaluate` returns, and what a functional unit's core hands its skeleton
/// (fu::StatelessOut).
struct Result {
  Word value = 0;
  FlagWord flags = 0;
  bool write_data = false;  ///< write `value` to destination register #1
  bool write_flags = true;  ///< write `flags` to the destination flag register
  /// Second data result for the thesis Fig. 2.18 two-record completion
  /// (DIVMOD's remainder, routed to the aux register).  Only an FSM unit
  /// built with a `writes_second` predicate retires it; every other
  /// skeleton drops it.
  Word second = 0;
  bool has_second = false;
};

/// Well-known function codes.  User-defined units occupy kUserBase and up.
namespace fc {
inline constexpr FunctionCode kRtm = 0x00;    ///< executed directly in the RTM main pipeline
inline constexpr FunctionCode kArith = 0x10;  ///< stateless arithmetic unit (thesis Table 3.1)
inline constexpr FunctionCode kLogic = 0x11;  ///< stateless logic unit (thesis Table 3.2)
inline constexpr FunctionCode kShift = 0x12;  ///< stateless shift/rotate unit (extension)
inline constexpr FunctionCode kMulDiv = 0x13; ///< multi-cycle multiply/divide unit
inline constexpr FunctionCode kFloat = 0x14;  ///< IEEE-754 single-precision unit
inline constexpr FunctionCode kTrig = 0x15;   ///< CORDIC trigonometric unit
inline constexpr FunctionCode kXsort = 0x20;  ///< stateful chi-sort SIMD engine (thesis §3.3)
inline constexpr FunctionCode kUserBase = 0x40;
}  // namespace fc

}  // namespace fpgafu::isa

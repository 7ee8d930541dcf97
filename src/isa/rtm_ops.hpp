#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "isa/instruction.hpp"
#include "isa/types.hpp"

namespace fpgafu::isa {

/// RTM-internal primitives ("general management primitives, e.g. copying
/// data from one register to another, are provided by the framework and
/// executed directly in the main pipeline" — thesis §1.3.1).  Selected by
/// the variety code when the function code is fc::kRtm.
enum class RtmOp : VarietyCode {
  kNop = 0x00,
  /// dst1 <- src1 (register-to-register copy in the execution stage).
  kCopy = 0x01,
  /// flag dst_flag <- flag src_flag.
  kCopyFlags = 0x02,
  /// dst1 <- the next 64-bit word in the instruction stream (the message
  /// buffer delivers it; this is how the host "sends packets of data").
  kPut = 0x03,
  /// flag dst_flag <- low bits of aux (single-word immediate form).
  kPutFlags = 0x04,
  /// dst1 <- zero-extended bits [31:0] of the instruction word
  /// (Instruction::imm32): a one-word PUT for any value below 2^32, which
  /// Program::emit_put picks whenever the value fits.
  kPutImm = 0x05,
  /// Send register src1 to the host as a data-record response.
  kGet = 0x06,
  /// Send flag register src_flag to the host as a flag-vector response.
  kGetFlags = 0x07,
  /// Barrier: stall until every functional unit is idle and no register
  /// lock is held, then send a sync-done response.
  kSync = 0x08,
  /// Vector PUT ("packets of data"): the next `aux` stream words load into
  /// registers dst1, dst1+1, ..., dst1+aux-1.  The decoder expands the
  /// burst into per-register transfers, so hazard tracking still works per
  /// register.  One header word moves aux words — half the link traffic of
  /// aux separate PUTs.
  kPutVec = 0x09,
  /// Vector GET: registers src1 .. src1+aux-1 return as `aux` data-record
  /// responses (all carrying this instruction's sequence number).
  kGetVec = 0x0a,
};

/// A per-instruction count — a primitive's payload words or responses:
/// zero, one, or the instruction's aux field.
enum class Count : std::uint8_t { kZero, kOne, kAux };

constexpr unsigned count(Count c, const Instruction& inst) {
  return c == Count::kAux ? inst.aux : static_cast<unsigned>(c);
}

/// What a primitive's responses carry, numbered as the response frame's
/// type code (msg::Response::Type takes its values from here).
enum class Reply : std::uint8_t { kNoReply, kData, kFlags, kSyncDone };

/// A register field of the instruction word.
enum class RegField : std::uint8_t { kNoReg, kDst1, kSrc1, kDstFlag, kSrcFlag };

constexpr bool is_flag(RegField f) {
  return f == RegField::kDstFlag || f == RegField::kSrcFlag;
}

/// The register number field `f` of `inst` holds.
constexpr unsigned reg(RegField f, const Instruction& inst) {
  switch (f) {
    case RegField::kDst1: return inst.dst1;
    case RegField::kSrc1: return inst.src1;
    case RegField::kDstFlag: return inst.dst_flag;
    case RegField::kSrcFlag: return inst.src_flag;
    case RegField::kNoReg: break;
  }
  return 0;
}

/// How many registers a primitive's register fields name.
enum class Burst : std::uint8_t {
  kSingle,   ///< one each
  kWhole,    ///< aux, from the field's register up, checked as one range:
             ///< an oversized PUTV faults whole
  kPerRead,  ///< aux, each checked on its own: a GETV sub-read beyond the
             ///< file answers its own error, the others answer data
};

/// One RTM primitive as the host side sees it: its spelling, its stream
/// framing, its responses and its register footprint.
struct RtmPrimitive {
  RtmOp op;
  std::string_view mnemonic;
  Operands operands;
  Count payload;    ///< stream words following the instruction word
  Count responses;  ///< responses when it does not fault
  Reply reply;      ///< what those responses carry
  RegField reads;   ///< the register it reads (checked by faults())
  RegField writes;  ///< the register it writes (checked by faults())
  Burst burst = Burst::kSingle;

  /// Registers each of its fields names (see Burst).
  constexpr unsigned span(const Instruction& inst) const {
    return burst == Burst::kSingle ? 1 : inst.aux;
  }

  /// True when `inst` names a register beyond files of `data_regs` data and
  /// `flag_regs` flag registers: it then answers one kBadRegister error in
  /// place of its responses and writes nothing, though a PUT or PUTV still
  /// consumes its payload.  A zero-length burst checks nothing.
  constexpr bool faults(const Instruction& inst, std::size_t data_regs,
                        std::size_t flag_regs) const {
    const std::size_t n = span(inst);
    auto beyond = [&](RegField f) {
      return f != RegField::kNoReg &&
             reg(f, inst) + n > (is_flag(f) ? flag_regs : data_regs);
    };
    return burst != Burst::kPerRead && n > 0 &&
           (beyond(reads) || beyond(writes));
  }
};

/// The RTM primitives, one row each, indexed by variety code.  A variety
/// with no row answers kUnknownFunction.  The assembler and disassembler,
/// Program, host framing and the ReferenceModel read the rows; the hardware
/// model (src/rtm/) keeps its own logic, and the RtmOps tests pin it to
/// them.
inline constexpr std::array<RtmPrimitive, 11> kRtmOps = [] {
  using enum RtmOp;
  using enum Operands;
  using enum Count;
  using enum Reply;
  using enum RegField;
  using enum Burst;
  return std::array<RtmPrimitive, 11>{{
      // op, mnemonic, operands, payload, responses, reply, reads, writes
      {kNop, "NOP", kNone, kZero, kZero, kNoReply, kNoReg, kNoReg},
      {kCopy, "COPY", kDa, kZero, kZero, kNoReply, kSrc1, kDst1},
      {kCopyFlags, "COPYF", kFS, kZero, kZero, kNoReply, kSrcFlag, kDstFlag},
      {kPut, "PUT", kDw, kOne, kZero, kNoReply, kNoReg, kDst1},
      {kPutFlags, "PUTF", kFn, kZero, kZero, kNoReply, kNoReg, kDstFlag},
      {kPutImm, "PUTI", kDi, kZero, kZero, kNoReply, kNoReg, kDst1},
      {kGet, "GET", kA, kZero, kOne, kData, kSrc1, kNoReg},
      {kGetFlags, "GETF", kS, kZero, kOne, kFlags, kSrcFlag, kNoReg},
      {kSync, "SYNC", kNone, kZero, kOne, kSyncDone, kNoReg, kNoReg},
      {kPutVec, "PUTV", kDn, kAux, kZero, kNoReply, kNoReg, kDst1, kWhole},
      {kGetVec, "GETV", kAn, kZero, kAux, kData, kSrc1, kNoReg, kPerRead},
  }};
}();

/// The row for RTM variety `variety`, or nullptr when it has none.
constexpr const RtmPrimitive* rtm_primitive(VarietyCode variety) {
  return variety < kRtmOps.size() ? &kRtmOps[variety] : nullptr;
}

/// The row `inst` runs, or nullptr for a unit instruction or an RTM variety
/// with no row.
constexpr const RtmPrimitive* rtm_primitive(const Instruction& inst) {
  return inst.function == fc::kRtm ? rtm_primitive(inst.variety) : nullptr;
}

/// An instruction running `op`, every operand field zero.
constexpr Instruction rtm_instruction(RtmOp op) {
  Instruction inst;
  inst.function = fc::kRtm;
  inst.variety = static_cast<VarietyCode>(op);
  return inst;
}

constexpr std::string_view to_string(RtmOp op) {
  const RtmPrimitive* row = rtm_primitive(static_cast<VarietyCode>(op));
  return row != nullptr ? row->mnemonic : "RTM?";
}

}  // namespace fpgafu::isa

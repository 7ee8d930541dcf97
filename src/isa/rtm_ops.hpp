#pragma once

#include <cstdint>
#include <string_view>

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

constexpr std::string_view to_string(RtmOp op) {
  switch (op) {
    case RtmOp::kNop: return "NOP";
    case RtmOp::kCopy: return "COPY";
    case RtmOp::kCopyFlags: return "COPYF";
    case RtmOp::kPut: return "PUT";
    case RtmOp::kPutFlags: return "PUTF";
    case RtmOp::kPutImm: return "PUTI";
    case RtmOp::kGet: return "GET";
    case RtmOp::kGetFlags: return "GETF";
    case RtmOp::kSync: return "SYNC";
    case RtmOp::kPutVec: return "PUTV";
    case RtmOp::kGetVec: return "GETV";
  }
  return "RTM?";
}

}  // namespace fpgafu::isa

#pragma once

#include <string>

#include "isa/rtm_ops.hpp"
#include "rtm/decoded.hpp"
#include "rtm/register_file.hpp"
#include "sim/component.hpp"
#include "sim/handshake.hpp"

namespace fpgafu::rtm {

/// Decoder pipeline stage (paper §III, Fig. 4).
///
/// Consumes the 64-bit instruction stream from the message buffer, splits
/// off PUT instructions' inline data words, expands PUTV/GETV burst
/// transfers into per-register micro-transfers (so the lock manager keeps
/// tracking hazards per register), assigns sequence numbers, and validates
/// register numbers against the configured file sizes (the thesis notes
/// the lookup tables for this are "implicitly synthesised into the
/// decoder").  Faulty instructions are not dropped silently: they carry an
/// error code downstream so the host receives an error response in stream
/// order.
class Decoder : public sim::Component {
 public:
  Decoder(sim::Simulator& sim, std::string name, const RegisterFile& regs,
          const FlagRegisterFile& flags)
      : Component(sim, std::move(name)), out(sim), regs_(&regs),
        flags_(&flags) {}

  sim::Handshake<isa::Word>* in = nullptr;  ///< from the message buffer
  sim::Handshake<DecodedInst> out;          ///< to the dispatcher

  void bind(sim::Handshake<isa::Word>& stream) { in = &stream; }

  /// True while an instruction (or an unfinished burst) is held.
  bool busy() const {
    return have_ || mode_ != Mode::kInstruction;
  }

  void eval() override {
    // GETV expansion produces sub-instructions without consuming stream
    // words; otherwise a word can be accepted whenever the output register
    // is free or draining this cycle.
    in->ready.set(mode_ != Mode::kVecGet && (!have_ || out.ready.get()));
    if (have_) {
      out.offer(held_);
    } else {
      out.withdraw();
    }
  }

  void commit() override {
    // have_/mode_/vec bookkeeping are plain clocked state, and only an
    // output fire or an input fire changes it: a held instruction stalled
    // on the dispatcher sleeps until out.ready moves.
    if (have_ && out.fire()) {
      have_ = false;
      mark_active();
    }
    if (mode_ == Mode::kVecGet) {
      if (!have_) {
        emit_vec_get();  // the previous sub-read just fired (reported)
      }
      return;
    }
    if (in->fire()) {
      mark_active();
      const isa::Word word = in->data.get();
      switch (mode_) {
        case Mode::kInstruction:
          decode_word(word);
          break;
        case Mode::kPutData:
          held_.inline_data = word;
          held_.has_inline = true;
          have_ = true;
          mode_ = Mode::kInstruction;
          break;
        case Mode::kVecPutData:
          emit_vec_put(word);
          break;
        case Mode::kVecGet:
          break;  // unreachable: ready was deasserted
      }
    }
  }

  void reset() override {
    have_ = false;
    mode_ = Mode::kInstruction;
    held_ = DecodedInst{};
    seq_ = 0;
    vec_remaining_ = 0;
    vec_base_ = 0;
    vec_index_ = 0;
    vec_discard_ = false;
    vec_seq_ = 0;
    out.reset();
  }

 private:
  enum class Mode {
    kInstruction,  ///< next stream word is an instruction
    kPutData,      ///< next stream word is the held PUT's payload
    kVecPutData,   ///< next vec_remaining_ words are PUTV payloads
    kVecGet,       ///< generating GETV sub-reads (no words consumed)
  };

  void decode_word(isa::Word word) {
    DecodedInst di;
    di.inst = isa::Instruction::decode(word);
    di.seq = seq_++;
    di.error = validate(di.inst);

    using isa::RtmOp;
    if (di.inst.function == isa::fc::kRtm) {
      switch (static_cast<RtmOp>(di.inst.variety)) {
        case RtmOp::kPut:
          // Hold silently until the payload word arrives (the word follows
          // even when the PUT itself faulted — stream framing must stay
          // aligned).
          held_ = di;
          mode_ = Mode::kPutData;
          return;
        case RtmOp::kPutVec: {
          if (di.inst.aux == 0) {
            return;  // zero-length burst: nothing to do
          }
          vec_remaining_ = di.inst.aux;
          vec_base_ = di.inst.dst1;
          vec_index_ = 0;
          vec_seq_ = di.seq;
          vec_discard_ = di.error != msg::ErrorCode::kNone;
          mode_ = Mode::kVecPutData;
          if (vec_discard_) {
            // Report the fault once, in order; the data words are consumed
            // and discarded.
            held_ = di;
            have_ = true;
          }
          return;
        }
        case RtmOp::kGetVec: {
          if (di.inst.aux == 0) {
            return;
          }
          vec_remaining_ = di.inst.aux;
          vec_base_ = di.inst.src1;
          vec_index_ = 0;
          vec_seq_ = di.seq;
          mode_ = Mode::kVecGet;
          emit_vec_get();  // first sub-read this cycle
          return;
        }
        default:
          break;
      }
    }
    held_ = di;
    have_ = true;
  }

  /// Synthesize the next PUTV sub-transfer for an arriving payload word.
  void emit_vec_put(isa::Word word) {
    if (!vec_discard_) {
      DecodedInst di;
      di.inst.function = isa::fc::kRtm;
      di.inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kPut);
      di.inst.dst1 = static_cast<isa::RegNum>(vec_base_ + vec_index_);
      di.inline_data = word;
      di.has_inline = true;
      di.seq = vec_seq_;
      held_ = di;
      have_ = true;
    }
    ++vec_index_;
    if (--vec_remaining_ == 0) {
      mode_ = Mode::kInstruction;
    }
  }

  /// Synthesize the next GETV sub-read.
  void emit_vec_get() {
    const unsigned reg = static_cast<unsigned>(vec_base_) + vec_index_;
    DecodedInst di;
    di.inst.function = isa::fc::kRtm;
    di.inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    di.inst.src1 = static_cast<isa::RegNum>(reg);
    di.seq = vec_seq_;
    di.burst = vec_index_;
    di.error = reg < regs_->size() ? msg::ErrorCode::kNone
                                   : msg::ErrorCode::kBadRegister;
    held_ = di;
    have_ = true;
    ++vec_index_;
    if (--vec_remaining_ == 0) {
      mode_ = Mode::kInstruction;
    }
  }

  /// Register-number range checks (see class comment).
  msg::ErrorCode validate(const isa::Instruction& inst) const {
    using isa::RtmOp;
    auto data_ok = [&](isa::RegNum r) { return regs_->valid(r); };
    auto flag_ok = [&](isa::RegNum r) { return flags_->valid(r); };
    if (inst.function == isa::fc::kRtm) {
      switch (static_cast<RtmOp>(inst.variety)) {
        case RtmOp::kNop:
        case RtmOp::kSync:
          return msg::ErrorCode::kNone;
        case RtmOp::kCopy:
          return data_ok(inst.dst1) && data_ok(inst.src1)
                     ? msg::ErrorCode::kNone
                     : msg::ErrorCode::kBadRegister;
        case RtmOp::kCopyFlags:
          return flag_ok(inst.dst_flag) && flag_ok(inst.src_flag)
                     ? msg::ErrorCode::kNone
                     : msg::ErrorCode::kBadRegister;
        case RtmOp::kPut:
        case RtmOp::kPutImm:
          return data_ok(inst.dst1) ? msg::ErrorCode::kNone
                                    : msg::ErrorCode::kBadRegister;
        case RtmOp::kPutVec:
          // The whole burst must fit the register file.
          return static_cast<unsigned>(inst.dst1) + inst.aux <= regs_->size()
                     ? msg::ErrorCode::kNone
                     : msg::ErrorCode::kBadRegister;
        case RtmOp::kGetVec:
          // Sub-reads are validated individually (each out-of-range read
          // yields its own error response, keeping the response count at
          // aux).
          return msg::ErrorCode::kNone;
        case RtmOp::kPutFlags:
          return flag_ok(inst.dst_flag) ? msg::ErrorCode::kNone
                                        : msg::ErrorCode::kBadRegister;
        case RtmOp::kGet:
          return data_ok(inst.src1) ? msg::ErrorCode::kNone
                                    : msg::ErrorCode::kBadRegister;
        case RtmOp::kGetFlags:
          return flag_ok(inst.src_flag) ? msg::ErrorCode::kNone
                                        : msg::ErrorCode::kBadRegister;
      }
      return msg::ErrorCode::kUnknownFunction;
    }
    // Functional-unit instruction: all register fields participate in the
    // standard three-source / two-destination format.
    const bool ok = data_ok(inst.dst1) && data_ok(inst.src1) &&
                    data_ok(inst.src2) && flag_ok(inst.dst_flag) &&
                    flag_ok(inst.src_flag);
    return ok ? msg::ErrorCode::kNone : msg::ErrorCode::kBadRegister;
  }

  const RegisterFile* regs_;
  const FlagRegisterFile* flags_;
  DecodedInst held_;
  bool have_ = false;
  Mode mode_ = Mode::kInstruction;
  std::uint8_t vec_remaining_ = 0;
  isa::RegNum vec_base_ = 0;
  std::uint8_t vec_index_ = 0;
  bool vec_discard_ = false;
  std::uint16_t vec_seq_ = 0;
  std::uint16_t seq_ = 0;
};

}  // namespace fpgafu::rtm

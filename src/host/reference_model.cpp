#include "host/reference_model.hpp"

#include "isa/arith.hpp"
#include "isa/fp32.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/shift.hpp"
#include "isa/trig.hpp"
#include "util/bits.hpp"

namespace fpgafu::host {

ReferenceModel::ReferenceModel(const rtm::RtmConfig& config)
    : config_(config),
      regs_(config.data_regs, 0),
      flags_(config.flag_regs, 0) {}

void ReferenceModel::clear() {
  regs_.assign(regs_.size(), 0);
  flags_.assign(flags_.size(), 0);
  responses_.clear();
  seq_ = 0;
  awaiting_put_data_ = false;
  discard_put_data_ = false;
  vec_remaining_ = 0;
  vec_base_ = 0;
  vec_index_ = 0;
  vec_discard_ = false;
}

std::vector<msg::Response> ReferenceModel::run(const isa::Program& program) {
  for (const isa::Word w : program.words()) {
    feed(w);
  }
  return responses_;
}

void ReferenceModel::feed(isa::Word word) {
  if (awaiting_put_data_) {
    awaiting_put_data_ = false;
    if (!discard_put_data_) {
      regs_.at(pending_put_.dst1) = word & bits::mask(config_.word_width);
    }
    return;
  }
  if (vec_remaining_ > 0) {
    if (!vec_discard_) {
      regs_.at(static_cast<isa::RegNum>(vec_base_ + vec_index_)) =
          word & bits::mask(config_.word_width);
    }
    ++vec_index_;
    --vec_remaining_;
    return;
  }
  const isa::Instruction inst = isa::Instruction::decode(word);
  const std::uint16_t seq = seq_++;
  execute(inst, seq);
}

void ReferenceModel::execute(const isa::Instruction& inst, std::uint16_t seq) {
  using isa::RtmOp;
  auto error = [&](msg::ErrorCode code) {
    msg::Response r;
    r.type = msg::Response::Type::kError;
    r.code = static_cast<std::uint8_t>(code);
    r.seq = seq;
    r.payload = inst.encode();
    responses_.push_back(r);
  };
  auto data_ok = [&](isa::RegNum r) { return r < regs_.size(); };
  auto flag_ok = [&](isa::RegNum r) { return r < flags_.size(); };

  if (inst.function == isa::fc::kRtm) {
    switch (static_cast<RtmOp>(inst.variety)) {
      case RtmOp::kNop:
        return;
      case RtmOp::kSync: {
        msg::Response r;
        r.type = msg::Response::Type::kSyncDone;
        r.seq = seq;
        responses_.push_back(r);
        return;
      }
      case RtmOp::kCopy:
        if (!data_ok(inst.dst1) || !data_ok(inst.src1)) {
          return error(msg::ErrorCode::kBadRegister);
        }
        regs_[inst.dst1] = regs_[inst.src1];
        return;
      case RtmOp::kCopyFlags:
        if (!flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
          return error(msg::ErrorCode::kBadRegister);
        }
        flags_[inst.dst_flag] = flags_[inst.src_flag];
        return;
      case RtmOp::kPut:
        if (!data_ok(inst.dst1)) {
          // The data word still follows in the stream; consume and discard
          // it (the hardware decoder does the same for a faulting PUT).
          error(msg::ErrorCode::kBadRegister);
          pending_put_ = inst;
          awaiting_put_data_ = true;
          discard_put_data_ = true;
          return;
        }
        pending_put_ = inst;
        awaiting_put_data_ = true;
        discard_put_data_ = false;
        return;
      case RtmOp::kPutImm:
        if (!data_ok(inst.dst1)) {
          return error(msg::ErrorCode::kBadRegister);
        }
        regs_[inst.dst1] = inst.imm32();
        return;
      case RtmOp::kPutVec: {
        if (inst.aux == 0) {
          return;
        }
        vec_remaining_ = inst.aux;
        vec_base_ = inst.dst1;
        vec_index_ = 0;
        vec_discard_ =
            static_cast<unsigned>(inst.dst1) + inst.aux > regs_.size();
        if (vec_discard_) {
          error(msg::ErrorCode::kBadRegister);
        }
        return;
      }
      case RtmOp::kGetVec:
        for (std::uint8_t i = 0; i < inst.aux; ++i) {
          const unsigned reg = static_cast<unsigned>(inst.src1) + i;
          if (reg < regs_.size()) {
            msg::Response r;
            r.type = msg::Response::Type::kData;
            r.seq = seq;
            r.burst = i;
            r.payload = regs_[reg];
            responses_.push_back(r);
          } else {
            // Each out-of-range sub-read yields its own error response;
            // the payload carries the synthesized GET's encoding, exactly
            // as the hardware decoder emits it.
            isa::Instruction sub;
            sub.function = isa::fc::kRtm;
            sub.variety = static_cast<isa::VarietyCode>(RtmOp::kGet);
            sub.src1 = static_cast<isa::RegNum>(reg);
            msg::Response r;
            r.type = msg::Response::Type::kError;
            r.code = static_cast<std::uint8_t>(msg::ErrorCode::kBadRegister);
            r.seq = seq;
            r.burst = i;
            r.payload = sub.encode();
            responses_.push_back(r);
          }
        }
        return;
      case RtmOp::kPutFlags:
        if (!flag_ok(inst.dst_flag)) {
          return error(msg::ErrorCode::kBadRegister);
        }
        flags_[inst.dst_flag] = static_cast<isa::FlagWord>(inst.aux);
        return;
      case RtmOp::kGet: {
        if (!data_ok(inst.src1)) {
          return error(msg::ErrorCode::kBadRegister);
        }
        msg::Response r;
        r.type = msg::Response::Type::kData;
        r.seq = seq;
        r.payload = regs_[inst.src1];
        responses_.push_back(r);
        return;
      }
      case RtmOp::kGetFlags: {
        if (!flag_ok(inst.src_flag)) {
          return error(msg::ErrorCode::kBadRegister);
        }
        msg::Response r;
        r.type = msg::Response::Type::kFlags;
        r.seq = seq;
        r.code = flags_[inst.src_flag];
        responses_.push_back(r);
        return;
      }
    }
    return error(msg::ErrorCode::kUnknownFunction);
  }

  // Stateless functional-unit instruction.
  if (!data_ok(inst.dst1) || !data_ok(inst.src1) || !data_ok(inst.src2) ||
      !flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
    return error(msg::ErrorCode::kBadRegister);
  }
  const unsigned width = config_.word_width;
  const isa::Word a = regs_[inst.src1];
  const isa::Word b = regs_[inst.src2];
  const isa::FlagWord f = flags_[inst.src_flag];
  if (inst.function == isa::fc::kArith) {
    const auto r = isa::arith::evaluate(inst.variety, a, b, f, width);
    if (r.write_data) {
      regs_[inst.dst1] = r.value;
    }
    flags_[inst.dst_flag] = r.flags;
    return;
  }
  if (inst.function == isa::fc::kLogic) {
    const auto r = isa::logic::evaluate(inst.variety, a, b, width);
    if (r.write_data) {
      regs_[inst.dst1] = r.value;
    }
    flags_[inst.dst_flag] = r.flags;
    return;
  }
  if (inst.function == isa::fc::kShift) {
    const auto r = isa::shift::evaluate(inst.variety, a, b, width);
    if (r.write_data) {
      regs_[inst.dst1] = r.value;
    }
    flags_[inst.dst_flag] = r.flags;
    return;
  }
  if (inst.function == isa::fc::kMulDiv) {
    const auto r = isa::muldiv::evaluate(inst.variety, a, b, width);
    if (r.has_second) {
      // Dual-output operation: the second destination (aux) must exist and
      // differ from dst1, mirroring the dispatcher's check.
      if (inst.aux >= regs_.size() || inst.aux == inst.dst1) {
        return error(msg::ErrorCode::kBadRegister);
      }
      regs_[inst.aux] = r.value2 & bits::mask(width);
    }
    if (r.write_data) {
      regs_[inst.dst1] = r.value;
    }
    flags_[inst.dst_flag] = r.flags;
    return;
  }
  if (inst.function == isa::fc::kFloat) {
    const auto r = isa::fp32::evaluate(inst.variety, a, b);
    if (r.write_data) {
      regs_[inst.dst1] = r.value;
    }
    flags_[inst.dst_flag] = r.flags;
    return;
  }
  if (inst.function == isa::fc::kTrig) {
    const auto r = isa::trig::evaluate(inst.variety, a, b);
    if (r.write_data) {
      regs_[inst.dst1] = r.value;
    }
    flags_[inst.dst_flag] = r.flags;
    return;
  }
  return error(msg::ErrorCode::kUnknownFunction);
}

}  // namespace fpgafu::host

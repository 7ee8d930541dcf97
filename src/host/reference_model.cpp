#include "host/reference_model.hpp"

#include "isa/rtm_ops.hpp"
#include "isa/stock_units.hpp"
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
  payload_left_ = 0;
}

std::vector<msg::Response> ReferenceModel::run(const isa::Program& program) {
  for (const isa::Word w : program.words()) {
    feed(w);
  }
  return responses_;
}

void ReferenceModel::feed(isa::Word word) {
  if (payload_left_ > 0) {
    --payload_left_;
    if (!payload_discard_) {
      regs_.at(payload_reg_++) = word & bits::mask(config_.word_width);
    }
    return;
  }
  const isa::Instruction inst = isa::Instruction::decode(word);
  const std::uint16_t seq = seq_++;
  execute(inst, seq);
}

void ReferenceModel::execute(const isa::Instruction& inst, std::uint16_t seq) {
  using isa::RtmOp;
  auto error = [&](msg::ErrorCode code, isa::Word payload,
                   std::uint16_t burst = 0) {
    msg::Response r;
    r.type = msg::Response::Type::kError;
    r.code = static_cast<std::uint8_t>(code);
    r.seq = seq;
    r.burst = burst;
    r.payload = payload;
    responses_.push_back(r);
  };
  auto data_ok = [&](isa::RegNum r) { return r < regs_.size(); };
  auto flag_ok = [&](isa::RegNum r) { return r < flags_.size(); };

  if (inst.function == isa::fc::kRtm) {
    const isa::RtmPrimitive* row = isa::rtm_primitive(inst.variety);
    if (row == nullptr) {
      return error(msg::ErrorCode::kUnknownFunction, inst.encode());
    }
    // A PUT's data word and a PUTV's burst load the written register up;
    // they follow in the stream even when the instruction faults, and are
    // then consumed and discarded (as the hardware decoder does).
    payload_left_ = isa::count(row->payload, inst);
    payload_reg_ = static_cast<isa::RegNum>(isa::reg(row->writes, inst));
    payload_discard_ = row->faults(inst, regs_.size(), flags_.size());
    if (payload_discard_) {
      return error(msg::ErrorCode::kBadRegister, inst.encode());
    }
    msg::Response r;
    r.type = static_cast<msg::Response::Type>(row->reply);
    r.seq = seq;
    switch (static_cast<RtmOp>(inst.variety)) {
      case RtmOp::kCopy:
        regs_[inst.dst1] = regs_[inst.src1];
        return;
      case RtmOp::kCopyFlags:
        flags_[inst.dst_flag] = flags_[inst.src_flag];
        return;
      case RtmOp::kPutImm:
        regs_[inst.dst1] = inst.imm32();
        return;
      case RtmOp::kPutFlags:
        flags_[inst.dst_flag] = static_cast<isa::FlagWord>(inst.aux);
        return;
      case RtmOp::kGet:
        r.payload = regs_[inst.src1];
        break;
      case RtmOp::kGetFlags:
        r.code = flags_[inst.src_flag];
        break;
      case RtmOp::kSync:
        break;
      case RtmOp::kGetVec:
        for (std::uint8_t i = 0; i < inst.aux; ++i) {
          const unsigned reg = static_cast<unsigned>(inst.src1) + i;
          if (reg < regs_.size()) {
            r.burst = i;
            r.payload = regs_[reg];
            responses_.push_back(r);
            continue;
          }
          // Each out-of-range sub-read yields its own error response; the
          // payload carries the synthesized GET's encoding, exactly as the
          // hardware decoder emits it.
          isa::Instruction sub = isa::rtm_instruction(RtmOp::kGet);
          sub.src1 = static_cast<isa::RegNum>(reg);
          error(msg::ErrorCode::kBadRegister, sub.encode(), i);
        }
        return;
      default:
        return;  // NOP; PUT and PUTV land through their payload
    }
    responses_.push_back(r);
    return;
  }

  // Stock functional-unit instruction.
  if (!data_ok(inst.dst1) || !data_ok(inst.src1) || !data_ok(inst.src2) ||
      !flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
    return error(msg::ErrorCode::kBadRegister, inst.encode());
  }
  const unsigned width = config_.word_width;
  const isa::Word a = regs_[inst.src1];
  const isa::Word b = regs_[inst.src2];
  const isa::FlagWord f = flags_[inst.src_flag];
  const isa::StockUnit* unit = isa::stock_unit(inst.function);
  if (unit == nullptr) {
    return error(msg::ErrorCode::kUnknownFunction, inst.encode());
  }
  const isa::Result r = unit->evaluate(inst.variety, a, b, f, width);
  if (r.has_second) {
    // Dual-output operation: the second destination (aux) must exist and
    // differ from dst1, mirroring the dispatcher's check.
    if (inst.aux >= regs_.size() || inst.aux == inst.dst1) {
      return error(msg::ErrorCode::kBadRegister, inst.encode());
    }
    regs_[inst.aux] = r.second & bits::mask(width);
  }
  if (r.write_data) {
    regs_[inst.dst1] = r.value;
  }
  flags_[inst.dst_flag] = r.flags;
}

}  // namespace fpgafu::host

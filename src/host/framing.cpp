#include "host/framing.hpp"

#include "isa/rtm_ops.hpp"
#include "util/error.hpp"

namespace fpgafu::host {

void split_groups_into(const isa::Program& program,
                       std::vector<InstructionGroup>& out) {
  const auto& words = program.words();
  for (std::size_t i = 0; i < words.size();) {
    InstructionGroup group;
    group.first_word = i;
    group.inst = isa::Instruction::decode(words[i]);
    std::size_t payload_words = 0;
    if (group.inst.function == isa::fc::kRtm) {
      const auto op = static_cast<isa::RtmOp>(group.inst.variety);
      if (op == isa::RtmOp::kPut) {
        payload_words = 1;
      } else if (op == isa::RtmOp::kPutVec) {
        payload_words = group.inst.aux;
      }
      check(i + payload_words < words.size(),
            "program ends inside a PUT/PUTV payload");
    }
    group.word_count = 1 + payload_words;
    i += group.word_count;
    out.push_back(group);
  }
}

std::vector<InstructionGroup> split_groups(const isa::Program& program) {
  std::vector<InstructionGroup> groups;
  split_groups_into(program, groups);
  return groups;
}

ResponsePrediction predict(const isa::Instruction& inst,
                           const rtm::RtmConfig& config,
                           const rtm::FunctionalUnitTable& table) {
  auto data_ok = [&](isa::RegNum r) { return r < config.data_regs; };
  auto flag_ok = [&](isa::RegNum r) { return r < config.flag_regs; };
  const ResponsePrediction one_error{1, true};

  using isa::RtmOp;
  if (inst.function == isa::fc::kRtm) {
    switch (static_cast<RtmOp>(inst.variety)) {
      case RtmOp::kNop:
        return {0, true};
      case RtmOp::kSync:
        return {1, true};
      case RtmOp::kCopy:
        return data_ok(inst.dst1) && data_ok(inst.src1)
                   ? ResponsePrediction{0, false}
                   : one_error;
      case RtmOp::kCopyFlags:
        return flag_ok(inst.dst_flag) && flag_ok(inst.src_flag)
                   ? ResponsePrediction{0, false}
                   : one_error;
      case RtmOp::kPut:
      case RtmOp::kPutImm:
        return data_ok(inst.dst1) ? ResponsePrediction{0, false} : one_error;
      case RtmOp::kPutVec:
        // A zero-length burst does nothing, even with an invalid base: the
        // decoder returns before validation can report.
        if (inst.aux == 0) {
          return {0, true};
        }
        return static_cast<unsigned>(inst.dst1) + inst.aux <= config.data_regs
                   ? ResponsePrediction{0, false}
                   : one_error;
      case RtmOp::kGetVec:
        // Every sub-read responds, in-range as data and out-of-range as an
        // error, so the count is always aux.
        return {inst.aux, true};
      case RtmOp::kPutFlags:
        return flag_ok(inst.dst_flag) ? ResponsePrediction{0, false}
                                      : one_error;
      case RtmOp::kGet:
        return {1, true};  // data or error, always exactly one
      case RtmOp::kGetFlags:
        return {1, true};
    }
    return one_error;  // unknown RTM variety -> kUnknownFunction response
  }

  // Functional-unit instruction: decoder validation first, then the
  // dispatcher's routing checks, in the same order.
  if (!data_ok(inst.dst1) || !data_ok(inst.src1) || !data_ok(inst.src2) ||
      !flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
    return one_error;
  }
  fu::FunctionalUnit* unit = table.find(inst.function);
  if (unit == nullptr) {
    return one_error;  // unattached function code
  }
  if (unit->writes_second(inst.variety) &&
      (!data_ok(inst.aux) || inst.aux == inst.dst1)) {
    return one_error;  // dual-output destination fault
  }
  return {0, false};  // dispatched to the unit; results land in registers
}

GroupEffects group_effects(const isa::Instruction& inst,
                           const rtm::RtmConfig& config,
                           const rtm::FunctionalUnitTable& table) {
  auto data_ok = [&](isa::RegNum r) { return r < config.data_regs; };
  auto flag_ok = [&](isa::RegNum r) { return r < config.flag_regs; };
  GroupEffects e;
  e.exact = true;  // every early return below is a complete footprint

  using isa::RtmOp;
  if (inst.function == isa::fc::kRtm) {
    switch (static_cast<RtmOp>(inst.variety)) {
      case RtmOp::kNop:
      case RtmOp::kSync:
        return e;  // no register traffic; SYNC's echo is value-independent
      case RtmOp::kCopy:
        if (data_ok(inst.dst1) && data_ok(inst.src1)) {
          e.data_writes.set(inst.dst1);
        }
        return e;  // invalid -> error response, write never lands
      case RtmOp::kCopyFlags:
        if (flag_ok(inst.dst_flag) && flag_ok(inst.src_flag)) {
          e.flag_writes.set(inst.dst_flag);
        }
        return e;
      case RtmOp::kPut:
      case RtmOp::kPutImm:
        if (data_ok(inst.dst1)) {
          e.data_writes.set(inst.dst1);
        }
        return e;
      case RtmOp::kPutVec:
        if (inst.aux > 0 &&
            static_cast<unsigned>(inst.dst1) + inst.aux <= config.data_regs) {
          for (unsigned i = 0; i < inst.aux; ++i) {
            e.data_writes.set(inst.dst1 + i);
          }
        }
        return e;  // oversized burst is discarded whole (one error response)
      case RtmOp::kGetVec:
        // In-range sub-reads return register values; out-of-range ones
        // return value-independent errors and read nothing.
        for (unsigned i = 0; i < inst.aux; ++i) {
          const unsigned reg = static_cast<unsigned>(inst.src1) + i;
          if (reg < config.data_regs) {
            e.data_reads.set(reg);
          }
        }
        return e;
      case RtmOp::kPutFlags:
        if (flag_ok(inst.dst_flag)) {
          e.flag_writes.set(inst.dst_flag);
        }
        return e;
      case RtmOp::kGet:
        if (data_ok(inst.src1)) {
          e.data_reads.set(inst.src1);
        }
        return e;
      case RtmOp::kGetFlags:
        if (flag_ok(inst.src_flag)) {
          e.flag_reads.set(inst.src_flag);
        }
        return e;
    }
    return e;  // unknown variety -> value-independent kUnknownFunction
  }

  // Functional-unit instruction: same validation chain as predict().  A
  // group that dispatches writes dst1, the second destination when the
  // unit produces one, and dst_flag (conservatively: every dispatched FU
  // op retires a flag word).  Its *reads* (src1/src2/src_flag) do not
  // matter to the barrier — FU groups are never retried.
  if (!data_ok(inst.dst1) || !data_ok(inst.src1) || !data_ok(inst.src2) ||
      !flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
    return e;
  }
  fu::FunctionalUnit* unit = table.find(inst.function);
  if (unit == nullptr) {
    return e;
  }
  const bool second = unit->writes_second(inst.variety);
  if (second && (!data_ok(inst.aux) || inst.aux == inst.dst1)) {
    return e;  // dual-output destination fault: predicted error, no writes
  }
  e.data_writes.set(inst.dst1);
  if (second) {
    e.data_writes.set(inst.aux);
  }
  e.flag_writes.set(inst.dst_flag);
  return e;
}

void FrameLayout::assign(const isa::Program& program,
                         const rtm::RtmConfig& config,
                         const rtm::FunctionalUnitTable& table) {
  words.assign(program.words().begin(), program.words().end());
  groups.clear();
  predictions.clear();
  effects.clear();
  split_groups_into(program, groups);
  for (const InstructionGroup& g : groups) {
    predictions.push_back(predict(g.inst, config, table));
    effects.push_back(group_effects(g.inst, config, table));
  }
}

}  // namespace fpgafu::host

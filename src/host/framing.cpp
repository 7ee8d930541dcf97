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

GroupPrediction predict(const isa::Instruction& inst,
                        const rtm::RtmConfig& config,
                        const rtm::FunctionalUnitTable& table) {
  auto data_ok = [&](isa::RegNum r) { return r < config.data_regs; };
  auto flag_ok = [&](isa::RegNum r) { return r < config.flag_regs; };
  GroupPrediction p;
  // A fault answers with one value-independent error response and never
  // lands its writes.
  GroupPrediction error;
  error.count = 1;

  using isa::RtmOp;
  if (inst.function == isa::fc::kRtm) {
    switch (static_cast<RtmOp>(inst.variety)) {
      case RtmOp::kNop:
        return p;
      case RtmOp::kSync:
        p.count = 1;  // the echo is value-independent
        return p;
      case RtmOp::kCopy:
        if (!data_ok(inst.dst1) || !data_ok(inst.src1)) {
          return error;
        }
        p.data_writes.set(inst.dst1);
        return p;
      case RtmOp::kCopyFlags:
        if (!flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
          return error;
        }
        p.flag_writes.set(inst.dst_flag);
        return p;
      case RtmOp::kPut:
      case RtmOp::kPutImm:
        if (!data_ok(inst.dst1)) {
          return error;
        }
        p.data_writes.set(inst.dst1);
        return p;
      case RtmOp::kPutVec:
        // A zero-length burst does nothing, even with an invalid base: the
        // decoder returns before validation can report.
        if (inst.aux == 0) {
          return p;
        }
        if (static_cast<unsigned>(inst.dst1) + inst.aux > config.data_regs) {
          return error;  // an oversized burst is discarded whole
        }
        for (unsigned i = 0; i < inst.aux; ++i) {
          p.data_writes.set(inst.dst1 + i);
        }
        return p;
      case RtmOp::kGetVec:
        // Every sub-read responds, in-range ones with register values and
        // out-of-range ones with value-independent errors, so the count is
        // always aux.
        p.count = inst.aux;
        for (unsigned i = 0; i < inst.aux; ++i) {
          const unsigned reg = static_cast<unsigned>(inst.src1) + i;
          if (reg < config.data_regs) {
            p.data_reads.set(reg);
          }
        }
        return p;
      case RtmOp::kPutFlags:
        if (!flag_ok(inst.dst_flag)) {
          return error;
        }
        p.flag_writes.set(inst.dst_flag);
        return p;
      case RtmOp::kGet:
        p.count = 1;  // data or error, always exactly one
        if (data_ok(inst.src1)) {
          p.data_reads.set(inst.src1);
        }
        return p;
      case RtmOp::kGetFlags:
        p.count = 1;
        if (flag_ok(inst.src_flag)) {
          p.flag_reads.set(inst.src_flag);
        }
        return p;
    }
    return error;  // unknown RTM variety -> kUnknownFunction response
  }

  // Functional-unit instruction: decoder validation first, then the
  // dispatcher's routing checks, in the same order.  A group that
  // dispatches sends no response and writes dst1, the second destination
  // when the unit produces one, and dst_flag (conservatively: every
  // dispatched FU op retires a flag word).  Its *reads* (src1/src2/
  // src_flag) do not matter to the barrier — FU groups are never retried.
  if (!data_ok(inst.dst1) || !data_ok(inst.src1) || !data_ok(inst.src2) ||
      !flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
    return error;
  }
  fu::FunctionalUnit* unit = table.find(inst.function);
  if (unit == nullptr) {
    return error;  // unattached function code
  }
  const bool second = unit->writes_second(inst.variety);
  if (second && (!data_ok(inst.aux) || inst.aux == inst.dst1)) {
    return error;  // dual-output destination fault
  }
  p.data_writes.set(inst.dst1);
  if (second) {
    p.data_writes.set(inst.aux);
  }
  p.flag_writes.set(inst.dst_flag);
  return p;
}

void FrameLayout::assign(const isa::Program& program,
                         const rtm::RtmConfig& config,
                         const rtm::FunctionalUnitTable& table) {
  words.assign(program.words().begin(), program.words().end());
  groups.clear();
  predictions.clear();
  split_groups_into(program, groups);
  for (const InstructionGroup& g : groups) {
    predictions.push_back(predict(g.inst, config, table));
  }
}

}  // namespace fpgafu::host

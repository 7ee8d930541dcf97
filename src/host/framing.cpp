#include "host/framing.hpp"

#include <algorithm>

#include "isa/rtm_ops.hpp"

namespace fpgafu::host {

void split_groups_into(const isa::Program& program,
                       std::vector<InstructionGroup>& out) {
  const auto& words = program.words();
  for (std::size_t i = 0; i < words.size();) {
    InstructionGroup group;
    group.first_word = i;
    group.inst = isa::Instruction::decode(words[i]);
    group.word_count = isa::group_words(group.inst, words.size() - i);
    i += group.word_count;
    out.push_back(group);
  }
}

GroupPrediction predict(const isa::Instruction& inst,
                        const rtm::RtmConfig& config,
                        const rtm::FunctionalUnitTable& table) {
  GroupPrediction p;
  // A fault answers with one value-independent error response and never
  // lands its writes.
  GroupPrediction error;
  error.count = 1;

  if (inst.function == isa::fc::kRtm) {
    // An unknown variety answers kUnknownFunction.
    const isa::RtmPrimitive* row = isa::rtm_primitive(inst.variety);
    if (row == nullptr ||
        row->faults(inst, config.data_regs, config.flag_regs)) {
      return error;
    }
    p.count = isa::count(row->responses, inst);
    // The registers a field names, from its own up (a burst spans aux):
    // those beyond the file are GETV sub-reads that answer a
    // value-independent error.
    const unsigned span = row->span(inst);
    auto mark = [&](isa::RegField f, GroupPrediction::RegSet& data,
                    GroupPrediction::RegSet& flags) {
      if (f == isa::RegField::kNoReg) {
        return;
      }
      const bool flag = isa::is_flag(f);
      const std::size_t first = isa::reg(f, inst);
      const std::size_t end = std::min<std::size_t>(
          first + span, flag ? config.flag_regs : config.data_regs);
      for (std::size_t r = first; r < end; ++r) {
        (flag ? flags : data).set(r);
      }
    };
    // Only a group that responds can be outstanding when a write arrives,
    // so only its reads matter to the write barrier.
    if (p.count > 0) {
      mark(row->reads, p.data_reads, p.flag_reads);
    }
    mark(row->writes, p.data_writes, p.flag_writes);
    return p;
  }

  // Functional-unit instruction: decoder validation first, then the
  // dispatcher's routing checks, in the same order.  A group that
  // dispatches sends no response and writes dst1, the second destination
  // when the unit produces one, and dst_flag (conservatively: every
  // dispatched FU op retires a flag word).  Its *reads* (src1/src2/
  // src_flag) do not matter to the barrier — FU groups are never retried.
  auto data_ok = [&](isa::RegNum r) { return r < config.data_regs; };
  auto flag_ok = [&](isa::RegNum r) { return r < config.flag_regs; };
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

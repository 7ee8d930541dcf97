#include "isa/program.hpp"

#include "util/error.hpp"

namespace fpgafu::isa {

void Program::emit(const Instruction& inst) {
  words_.push_back(inst.encode());
  ++instructions_;
  if (const RtmPrimitive* row = rtm_primitive(inst)) {
    responses_ += count(row->responses, inst);
  }
}

void Program::emit_put_vec(RegNum base, const std::vector<Word>& values) {
  check(values.size() <= 255, "PUTV bursts carry at most 255 words");
  Instruction putv = rtm_instruction(RtmOp::kPutVec);
  putv.dst1 = base;
  putv.aux = static_cast<std::uint8_t>(values.size());
  emit(putv);
  for (const Word v : values) {
    emit_raw(v);
  }
}

void Program::emit_get_vec(RegNum base, std::uint8_t count) {
  Instruction getv = rtm_instruction(RtmOp::kGetVec);
  getv.src1 = base;
  getv.aux = count;
  emit(getv);  // emit() accounts for the aux responses
}

void Program::emit_put(RegNum dst, Word value) {
  if (value <= 0xffffffffu) {
    Instruction puti = rtm_instruction(RtmOp::kPutImm);
    puti.dst1 = dst;
    puti.set_imm32(static_cast<std::uint32_t>(value));
    emit(puti);
    return;
  }
  Instruction put = rtm_instruction(RtmOp::kPut);
  put.dst1 = dst;
  emit(put);
  emit_raw(value);
}

void Program::emit_raw(Word word) { words_.push_back(word); }

void Program::check_complete() const {
  for (std::size_t i = 0; i < words_.size();) {
    i += group_words(Instruction::decode(words_[i]), words_.size() - i);
  }
}

void Program::clear() {
  words_.clear();
  instructions_ = 0;
  responses_ = 0;
}

std::size_t group_words(const Instruction& head, std::size_t left) {
  const RtmPrimitive* row = rtm_primitive(head);
  const std::size_t words = 1 + (row != nullptr ? count(row->payload, head) : 0);
  check(words <= left, "program ends inside a PUT/PUTV payload");
  return words;
}

}  // namespace fpgafu::isa

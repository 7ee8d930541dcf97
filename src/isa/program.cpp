#include "isa/program.hpp"

#include "util/error.hpp"

namespace fpgafu::isa {

void Program::emit(const Instruction& inst) {
  words_.push_back(inst.encode());
  ++instructions_;
  if (inst.function == fc::kRtm) {
    const auto op = static_cast<RtmOp>(inst.variety);
    if (op == RtmOp::kGet || op == RtmOp::kGetFlags || op == RtmOp::kSync) {
      ++responses_;
    } else if (op == RtmOp::kGetVec) {
      responses_ += inst.aux;
    }
  }
}

void Program::emit_put_vec(RegNum base, const std::vector<Word>& values) {
  check(values.size() <= 255, "PUTV bursts carry at most 255 words");
  Instruction putv;
  putv.function = fc::kRtm;
  putv.variety = static_cast<VarietyCode>(RtmOp::kPutVec);
  putv.dst1 = base;
  putv.aux = static_cast<std::uint8_t>(values.size());
  emit(putv);
  for (const Word v : values) {
    emit_raw(v);
  }
}

void Program::emit_get_vec(RegNum base, std::uint8_t count) {
  Instruction getv;
  getv.function = fc::kRtm;
  getv.variety = static_cast<VarietyCode>(RtmOp::kGetVec);
  getv.src1 = base;
  getv.aux = count;
  emit(getv);  // emit() accounts for the aux responses
}

void Program::emit_put(RegNum dst, Word value) {
  Instruction put;
  put.function = fc::kRtm;
  put.dst1 = dst;
  if (value <= 0xffffffffu) {
    put.variety = static_cast<VarietyCode>(RtmOp::kPutImm);
    put.set_imm32(static_cast<std::uint32_t>(value));
    emit(put);
    return;
  }
  put.variety = static_cast<VarietyCode>(RtmOp::kPut);
  emit(put);
  emit_raw(value);
}

void Program::emit_raw(Word word) { words_.push_back(word); }

void Program::clear() {
  words_.clear();
  instructions_ = 0;
  responses_ = 0;
}

}  // namespace fpgafu::isa

#include <gtest/gtest.h>

#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "support/rtm_harness.hpp"
#include "util/bits.hpp"

namespace fpgafu::rtm {
namespace {

using fpgafu::testing::RtmRig;

constexpr isa::Word kTwo32 = isa::Word{1} << 32;

isa::Instruction put_imm(isa::RegNum dst, std::uint32_t value) {
  isa::Instruction inst;
  inst.function = isa::fc::kRtm;
  inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kPutImm);
  inst.dst1 = dst;
  inst.set_imm32(value);
  return inst;
}

/// The two-word PUT, whatever the value: the form emit_put no longer picks
/// for values below 2^32.
void emit_long_put(isa::Program& p, isa::RegNum dst, isa::Word value) {
  isa::Instruction put;
  put.function = isa::fc::kRtm;
  put.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kPut);
  put.dst1 = dst;
  p.emit(put);
  p.emit_raw(value);
}

TEST(PutImm, EncodeDecodeRoundTripsTheImmediate) {
  for (const std::uint32_t v :
       {0u, 1u, 0xffu, 0x100u, 0x12345678u, 0xdeadbeefu, 0xffffffffu}) {
    SCOPED_TRACE(v);
    isa::Instruction inst = put_imm(7, v);
    inst.dst_flag = 3;
    const isa::Word word = inst.encode();
    EXPECT_EQ(bits::field(word, 31, 0), v);    // bits [31:0]
    EXPECT_EQ(bits::field(word, 39, 32), 7u);  // dst1 untouched
    EXPECT_EQ(bits::field(word, 47, 40), 3u);  // dst_flag untouched
    const isa::Instruction back = isa::Instruction::decode(word);
    EXPECT_EQ(back, inst);
    EXPECT_EQ(back.imm32(), v);
  }
}

TEST(PutImm, EmitPutIsOneWordExactlyBelowTwoToThe32) {
  struct Case {
    isa::Word value;
    std::size_t words;
  };
  for (const Case c : {Case{0, 1}, Case{255, 1}, Case{256, 1},
                       Case{kTwo32 - 1, 1}, Case{kTwo32, 2},
                       Case{~isa::Word{0}, 2}}) {
    SCOPED_TRACE(c.value);
    isa::Program p;
    p.emit_put(4, c.value);
    ASSERT_EQ(p.size_words(), c.words);
    EXPECT_EQ(p.instruction_count(), 1u);
    EXPECT_EQ(p.expected_responses(), 0u);
    const isa::Instruction inst = isa::Instruction::decode(p.words()[0]);
    EXPECT_EQ(inst.dst1, 4u);
    if (c.words == 1) {
      EXPECT_EQ(static_cast<isa::RtmOp>(inst.variety), isa::RtmOp::kPutImm);
      EXPECT_EQ(inst.imm32(), c.value);
    } else {
      EXPECT_EQ(static_cast<isa::RtmOp>(inst.variety), isa::RtmOp::kPut);
      EXPECT_EQ(p.words()[1], c.value);
    }
  }
}

/// PUTI and the two-word PUT of the same value leave the same register
/// value and answer a bad destination with the same single error (type,
/// code and sequence number; its payload echoes the faulting instruction
/// word), at both supported word widths; the RTM agrees with the reference
/// model on each form.
TEST(PutImm, MatchesTheLongPutAndTheReferenceAtBothWidths) {
  const std::vector<isa::Word> values = {
      0, 1, 255, 256, 0xabcdef, kTwo32 - 1, kTwo32, kTwo32 + 5, ~isa::Word{0}};
  for (const unsigned width : {32u, 64u}) {
    SCOPED_TRACE(width);
    rtm::RtmConfig cfg;
    cfg.data_regs = 16;
    cfg.word_width = width;
    const auto bad = static_cast<isa::RegNum>(cfg.data_regs);
    isa::Program short_form;
    isa::Program long_form;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto dst = static_cast<isa::RegNum>(1 + i);
      short_form.emit_put(dst, values[i]);
      emit_long_put(long_form, dst, values[i]);
    }
    short_form.emit(put_imm(bad, 42));
    emit_long_put(long_form, bad, 42);
    short_form.emit_get_vec(1, static_cast<std::uint8_t>(values.size()));
    long_form.emit_get_vec(1, static_cast<std::uint8_t>(values.size()));
    ASSERT_LT(short_form.size_words(), long_form.size_words());

    RtmRig short_rig(cfg);
    RtmRig long_rig(cfg);
    const auto hw = short_rig.run_program(short_form);
    const auto hw_long = long_rig.run_program(long_form);
    EXPECT_EQ(hw, host::ReferenceModel(cfg).run(short_form));
    EXPECT_EQ(hw_long, host::ReferenceModel(cfg).run(long_form));

    ASSERT_EQ(hw.size(), 1 + values.size());
    ASSERT_EQ(hw_long.size(), hw.size());
    EXPECT_EQ(hw[0].type, msg::Response::Type::kError);
    EXPECT_EQ(static_cast<msg::ErrorCode>(hw[0].code),
              msg::ErrorCode::kBadRegister);
    EXPECT_EQ(hw_long[0].type, hw[0].type);
    EXPECT_EQ(hw_long[0].code, hw[0].code);
    EXPECT_EQ(hw_long[0].seq, hw[0].seq);
    EXPECT_EQ(hw[0].payload, put_imm(bad, 42).encode());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(hw[1 + i].payload, values[i] & bits::mask(width))
          << "r" << 1 + i;
      EXPECT_EQ(hw_long[1 + i], hw[1 + i]) << "r" << 1 + i;
    }
  }
}

TEST(PutImm, AssemblerAndDisassemblerRoundTrip) {
  const isa::Program p = isa::Assembler::assemble(R"(
    PUT r1, #0x12
    PUT r2, #0xffffffff
    PUT r3, #0x100000000
    PUTI r4, 4294967295
    PUTI r5, 0x100
  )");
  // The two PUTs that fit 32 bits and both PUTIs are one word each; the PUT
  // of 2^32 keeps its inline data word.
  EXPECT_EQ(p.instruction_count(), 5u);
  EXPECT_EQ(p.size_words(), 6u);
  const std::vector<std::string> lines = isa::disassemble(p.words());
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "PUTI r1, 18", "PUTI r2, 4294967295",
                       "PUT r3, #0x100000000", "PUTI r4, 4294967295",
                       "PUTI r5, 256"}));
  std::string source;
  for (const std::string& line : lines) {
    source += line + "\n";
  }
  EXPECT_EQ(isa::Assembler::assemble(source).words(), p.words());
}

}  // namespace
}  // namespace fpgafu::rtm

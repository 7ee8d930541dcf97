#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include "isa/arith.hpp"
#include "isa/logic.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/shift.hpp"
#include "util/error.hpp"

namespace fpgafu::isa {
namespace {

Instruction first_instruction(const std::string& line) {
  Program p;
  Assembler::assemble_line(line, p);
  EXPECT_EQ(p.instruction_count(), 1u);
  return Instruction::decode(p.words().front());
}

TEST(Assembler, AddEncodesOperands) {
  const Instruction i = first_instruction("ADD r3, r1, r2");
  EXPECT_EQ(i.function, fc::kArith);
  EXPECT_EQ(i.variety, arith::variety(arith::Op::kAdd));
  EXPECT_EQ(i.dst1, 3);
  EXPECT_EQ(i.src1, 1);
  EXPECT_EQ(i.src2, 2);
  EXPECT_EQ(i.dst_flag, 0);  // default flag destination
}

TEST(Assembler, AdcTakesSourceFlagAndOptionalDestFlag) {
  const Instruction i = first_instruction("ADC r3, r1, r2, f1, f2");
  EXPECT_EQ(i.variety, arith::variety(arith::Op::kAdc));
  EXPECT_EQ(i.src_flag, 1);
  EXPECT_EQ(i.dst_flag, 2);
  const Instruction j = first_instruction("ADC r3, r1, r2, f1");
  EXPECT_EQ(j.src_flag, 1);
  EXPECT_EQ(j.dst_flag, 0);
}

TEST(Assembler, NegUsesSecondOperandSlot) {
  const Instruction i = first_instruction("NEG r4, r9");
  EXPECT_EQ(i.variety, arith::variety(arith::Op::kNeg));
  EXPECT_EQ(i.dst1, 4);
  EXPECT_EQ(i.src2, 9);
  EXPECT_EQ(i.src1, 0);
}

TEST(Assembler, CmpHasNoDestination) {
  const Instruction i = first_instruction("CMP r1, r2, f3");
  EXPECT_EQ(i.variety, arith::variety(arith::Op::kCmp));
  EXPECT_EQ(i.src1, 1);
  EXPECT_EQ(i.src2, 2);
  EXPECT_EQ(i.dst_flag, 3);
  EXPECT_EQ(i.dst1, 0);
}

TEST(Assembler, PutEmitsInlineDataWord) {
  Program p;
  Assembler::assemble_line("PUT r5, #0xdeadbeefcafef00d", p);
  ASSERT_EQ(p.size_words(), 2u);
  EXPECT_EQ(p.instruction_count(), 1u);
  const Instruction i = Instruction::decode(p.words()[0]);
  EXPECT_EQ(i.function, fc::kRtm);
  EXPECT_EQ(static_cast<RtmOp>(i.variety), RtmOp::kPut);
  EXPECT_EQ(i.dst1, 5);
  EXPECT_EQ(p.words()[1], 0xdeadbeefcafef00dULL);
}

TEST(Assembler, RtmForms) {
  EXPECT_EQ(static_cast<RtmOp>(first_instruction("NOP").variety), RtmOp::kNop);
  EXPECT_EQ(static_cast<RtmOp>(first_instruction("SYNC").variety),
            RtmOp::kSync);
  const Instruction copy = first_instruction("COPY r7, r2");
  EXPECT_EQ(static_cast<RtmOp>(copy.variety), RtmOp::kCopy);
  EXPECT_EQ(copy.dst1, 7);
  EXPECT_EQ(copy.src1, 2);
  const Instruction copyf = first_instruction("COPYF f3, f1");
  EXPECT_EQ(copyf.dst_flag, 3);
  EXPECT_EQ(copyf.src_flag, 1);
  const Instruction puti = first_instruction("PUTI r2, 200");
  EXPECT_EQ(puti.aux, 200);
  const Instruction get = first_instruction("GET r9");
  EXPECT_EQ(get.src1, 9);
  const Instruction getf = first_instruction("GETF f4");
  EXPECT_EQ(getf.src_flag, 4);
}

TEST(Assembler, LogicAndShiftMnemonics) {
  EXPECT_EQ(first_instruction("AND r1, r2, r3").variety,
            logic::variety(logic::Op::kAnd));
  EXPECT_EQ(first_instruction("XNOR r1, r2, r3").variety,
            logic::variety(logic::Op::kXnor));
  EXPECT_EQ(first_instruction("NOT r1, r2").variety,
            logic::variety(logic::Op::kNot));
  EXPECT_EQ(first_instruction("CLEAR r1").variety,
            logic::variety(logic::Op::kClear));
  EXPECT_EQ(first_instruction("ROL r1, r2, r3").variety,
            shift::variety(shift::Op::kRol));
  EXPECT_EQ(first_instruction("ROL r1, r2, r3").function, fc::kShift);
}

TEST(Assembler, CaseInsensitiveMnemonicsAndComments) {
  Program p = Assembler::assemble(R"(
    ; multi-word add fragment
    put r1, #0xffffffff   # low word of x
    add r3, r1, r2, f0
    adc r4, r5, r6, f0, f0
    get r3
    get r4
  )");
  EXPECT_EQ(p.instruction_count(), 5u);
  EXPECT_EQ(p.size_words(), 5u);  // a PUT that fits 32 bits is one PUTI
  EXPECT_EQ(p.expected_responses(), 2u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    Assembler::assemble("NOP\nFROB r1\n");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FROB"), std::string::npos);
  }
}

TEST(Assembler, RejectsBadOperands) {
  Program p;
  EXPECT_THROW(Assembler::assemble_line("ADD r1, r2", p), SimError);
  EXPECT_THROW(Assembler::assemble_line("ADD r1, r2, f3", p), SimError);
  EXPECT_THROW(Assembler::assemble_line("PUTI r1, 0x100000000", p), SimError);
  EXPECT_THROW(Assembler::assemble_line("PUT r1, 5", p), SimError);
  EXPECT_THROW(Assembler::assemble_line("COPY r1, r2, r3", p), SimError);
  EXPECT_THROW(Assembler::assemble_line("ADD r999, r1, r2", p), SimError);
}

TEST(Assembler, DisassembleRoundTrip) {
  const std::string source = R"(PUT r1, #0x12
PUTI r2, 7
ADD r3, r1, r2, f1
CMP r3, r1
GET r3
GETF f1
SYNC)";
  Program p = Assembler::assemble(source);
  const auto lines = disassemble(p.words());
  ASSERT_EQ(lines.size(), p.instruction_count());
  // Re-assembling the disassembly yields the identical word stream.
  std::string rejoined;
  for (const auto& line : lines) {
    rejoined += line + "\n";
  }
  Program p2 = Assembler::assemble(rejoined);
  EXPECT_EQ(p2.words(), p.words());
}

TEST(Assembler, DisassembleUnknownWordsAsRaw) {
  Instruction weird;
  weird.function = 0x73;  // no unit has this code
  const auto lines = disassemble({weird.encode()});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind(".word", 0), 0u);
}

}  // namespace
}  // namespace fpgafu::isa

// Every variety of every stock unit, read off the one unit table
// (isa/stock_units.hpp): its assembler spelling round-trips, and a System
// built with every stock unit, on each skeleton, answers exactly as the
// ReferenceModel on a fixed operand grid.  A row added to the table is covered here unedited.

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "host/coprocessor.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/stock_units.hpp"
#include "top/system.hpp"
#include "util/bits.hpp"

namespace fpgafu::top {
namespace {

constexpr isa::RegNum kA = 1, kB = 2, kDst = 3, kAux = 4;
constexpr isa::RegNum kFlagIn = 1, kFlagOut = 2;

isa::Instruction unit_op(const isa::StockUnit& unit, const isa::StockOp& op,
                         isa::RegNum aux) {
  isa::Instruction inst;
  inst.function = unit.code;
  inst.variety = op.variety;
  inst.dst1 = kDst;
  inst.src1 = kA;
  inst.src2 = kB;
  inst.aux = aux;
  inst.src_flag = kFlagIn;
  inst.dst_flag = kFlagOut;
  return inst;
}

isa::Instruction rtm_op(isa::RtmOp op) {
  isa::Instruction inst;
  inst.function = isa::fc::kRtm;
  inst.variety = static_cast<isa::VarietyCode>(op);
  return inst;
}

TEST(StockUnits, EveryVarietyReassemblesFromItsDisassembly) {
  for (const isa::StockUnit& unit : isa::kStockUnits) {
    for (const isa::StockOp& op : unit.ops) {
      SCOPED_TRACE(std::string(unit.name) + " " + std::string(op.mnemonic));
      // Every field set: the mnemonic's operands keep the ones it names.
      const isa::Instruction full = unit_op(unit, op, kAux);
      const std::string text = isa::disassemble_one(full);
      EXPECT_EQ(text.substr(0, text.find(' ')), op.mnemonic);
      const isa::Program once = isa::Assembler::assemble(text);
      ASSERT_EQ(once.words().size(), 1u);
      const isa::Instruction kept = isa::Instruction::decode(once.words()[0]);
      EXPECT_EQ(kept.function, unit.code);
      EXPECT_EQ(kept.variety, op.variety);
      const auto kept_or_dropped = [](unsigned got, unsigned set) {
        return got == set || got == 0;
      };
      EXPECT_TRUE(kept_or_dropped(kept.dst1, full.dst1));
      EXPECT_TRUE(kept_or_dropped(kept.src1, full.src1));
      EXPECT_TRUE(kept_or_dropped(kept.src2, full.src2));
      EXPECT_TRUE(kept_or_dropped(kept.aux, full.aux));
      EXPECT_TRUE(kept_or_dropped(kept.src_flag, full.src_flag));
      EXPECT_TRUE(kept_or_dropped(kept.dst_flag, full.dst_flag));
      // The kept word is one the assembler spells: it round-trips exactly.
      const auto lines = isa::disassemble(once.words());
      ASSERT_EQ(lines.size(), 1u);
      EXPECT_EQ(isa::Assembler::assemble(lines[0]).words(), once.words());
    }
  }
}

TEST(StockUnits, SystemEqualsTheReferenceModelOnTheOperandGrid) {
  for (const unsigned width : {32u, 64u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const isa::Word ones = bits::mask(width);
    const isa::Word sign = isa::Word{1} << (width - 1);
    // Zero doubles as the zero divisor.
    const std::array<isa::Word, 4> grid = {0, 1, ones, sign};

    isa::Program program;
    std::size_t faults = 0;
    std::size_t second_records = 0;
    unsigned carry = 0;
    for (const isa::Word a : grid) {
      for (const isa::Word b : grid) {
        program.emit_put(kA, a);
        program.emit_put(kB, b);
        for (const isa::StockUnit& unit : isa::kStockUnits) {
          for (const isa::StockOp& op : unit.ops) {
            isa::Instruction flags = rtm_op(isa::RtmOp::kPutFlags);
            flags.dst_flag = kFlagIn;
            flags.aux = static_cast<std::uint8_t>(carry ^= 1);
            program.emit(flags);
            program.emit(unit_op(unit, op, kAux));
            isa::Instruction get = rtm_op(isa::RtmOp::kGet);
            get.src1 = kDst;
            program.emit(get);
            isa::Instruction getf = rtm_op(isa::RtmOp::kGetFlags);
            getf.src_flag = kFlagOut;
            program.emit(getf);
            if (unit.writes_second != nullptr &&
                unit.writes_second(op.variety)) {
              get.src1 = kAux;
              program.emit(get);
              ++second_records;
              // A second destination equal to the first is a fault.
              program.emit(unit_op(unit, op, kDst));
              ++faults;
            }
          }
        }
      }
    }
    ASSERT_GT(second_records, 0u);

    SystemConfig cfg;
    cfg.rtm.word_width = width;
    host::ReferenceModel model(cfg.rtm);
    const auto expect = model.run(program);
    std::size_t errors = 0;
    for (const msg::Response& r : expect) {
      errors += r.type == msg::Response::Type::kError ? 1 : 0;
    }
    EXPECT_EQ(errors, faults);
    // Every skeleton System may build its stock units on.
    for (const fu::Skeleton skeleton :
         {fu::Skeleton::kMinimal, fu::Skeleton::kMinimalFwd,
          fu::Skeleton::kFsm, fu::Skeleton::kPipelined}) {
      SCOPED_TRACE("skeleton " + std::to_string(static_cast<int>(skeleton)));
      cfg.stateless_skeleton = skeleton;
      System sys(cfg);
      host::Coprocessor copro(sys);
      const auto hw = copro.call(program);
      ASSERT_EQ(hw.size(), expect.size());
      for (std::size_t i = 0; i < hw.size(); ++i) {
        ASSERT_EQ(hw[i], expect[i]) << "response " << i;
      }
    }
  }
}

}  // namespace
}  // namespace fpgafu::top

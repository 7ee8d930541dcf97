#include <gtest/gtest.h>

#include "fu/stateless_units.hpp"
#include "host/coprocessor.hpp"
#include "isa/assembler.hpp"
#include "isa/logic.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"

namespace fpgafu::top {
namespace {

using host::Coprocessor;
using isa::Assembler;
using msg::Response;

/// Dynamic instruction sets via attach/detach — the model analogue of the
/// partial-reconfiguration systems the paper's related work discusses
/// (Wirthlin & Hutchings): the same function code is served by different
/// circuits over the program's lifetime.

TEST(Reconfiguration, DetachedCodeBecomesError) {
  System sys({});
  Coprocessor copro(sys);
  // Works while attached.
  auto r1 = copro.call(Assembler::assemble(R"(
    PUTI r1, 6
    PUTI r2, 7
    MUL r3, r1, r2
    GET r3
  )"));
  EXPECT_EQ(r1[0].payload, 42u);
  // Quiesce, then "reconfigure away" the mul/div unit.
  copro.sync();
  sys.detach(isa::fc::kMulDiv);
  auto r2 = copro.call(Assembler::assemble("MUL r3, r1, r2\nSYNC"));
  ASSERT_EQ(r2.size(), 2u);
  EXPECT_EQ(r2[0].type, Response::Type::kError);
  EXPECT_EQ(r2[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnknownFunction));
}

TEST(Reconfiguration, SwapUnitUnderSameFunctionCode) {
  // "Load a new instruction": replace the arithmetic unit's circuit with a
  // different implementation under the same code — here, the logic core,
  // so ADD's variety bits suddenly mean a LUT2 table.  The observable
  // point: the same instruction word is served by a different circuit.
  System sys({});
  Coprocessor copro(sys);
  copro.write_reg(1, 0b1100);
  copro.write_reg(2, 0b1010);
  const isa::Program add_prog = Assembler::assemble("ADD r3, r1, r2\nGET r3");
  EXPECT_EQ(copro.call(add_prog)[0].payload, 0b1100u + 0b1010u);

  copro.sync();
  sys.detach(isa::fc::kArith);
  fu::StatelessConfig cfg{.width = 32};
  auto replacement =
      fu::make_stock_unit(sys.simulator(), isa::fc::kLogic, cfg,
                          "arith_replacement");
  sys.attach(isa::fc::kArith, *replacement);

  // Same instruction word; ADD's variety (0b000100) as a LUT2 table is
  // table=0b0100 without the logic unit's output bit... it computes a&~b
  // but writes nothing.  Use an explicit logic-encoded word instead to
  // observe data: AND's variety under the logic interpretation.
  isa::Instruction inst;
  inst.function = isa::fc::kArith;  // the *code* is what got reconfigured
  inst.variety = isa::logic::variety(isa::logic::Op::kAnd);
  inst.dst1 = 3;
  inst.src1 = 1;
  inst.src2 = 2;
  isa::Program p;
  p.emit(inst);
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 3;
  p.emit(get);
  EXPECT_EQ(copro.call(p)[0].payload, 0b1000u);  // 1100 & 1010
}

TEST(Reconfiguration, DetachRefusedWhileWritesInFlight) {
  // A slow FSM-based unit holds its destination lock for many cycles; a
  // detach during that window must be refused.
  SystemConfig cfg;
  cfg.with_arithmetic = false;
  cfg.with_logic = false;
  cfg.with_shift = false;
  cfg.with_muldiv = false;
  cfg.with_float = false;
  System sys(cfg);
  fu::StatelessConfig slow{.width = 32,
                           .skeleton = fu::Skeleton::kFsm,
                           .execute_cycles = 200};
  auto unit = fu::make_arithmetic_unit(sys.simulator(), slow, "slow");
  sys.attach(isa::fc::kArith, *unit);
  Coprocessor copro(sys);
  copro.submit(Assembler::assemble(R"(
    PUTI r1, 1
    PUTI r2, 2
    ADD r3, r1, r2
  )"));
  // Run just far enough for the ADD to dispatch into the unit (it then
  // holds the lock on r3 until its 200-cycle execution retires).
  sys.simulator().run_until(
      [&] { return sys.rtm().counters().get("dispatch.unit") > 0; }, 1000);
  EXPECT_THROW(sys.detach(isa::fc::kArith), SimError);
  // After completion it is allowed.
  copro.sync();
  sys.detach(isa::fc::kArith);
}

TEST(Reconfiguration, SlotReuseKeepsOtherUnitsWorking) {
  System sys({});
  Coprocessor copro(sys);
  copro.sync();
  sys.detach(isa::fc::kLogic);
  // Other units unaffected.
  auto r = copro.call(Assembler::assemble(R"(
    PUTI r1, 9
    PUTI r2, 4
    SUB r3, r1, r2
    GET r3
  )"));
  EXPECT_EQ(r[0].payload, 5u);
  // Reattach into the freed slot.
  fu::StatelessConfig cfg{.width = 32};
  auto logic2 =
      fu::make_stock_unit(sys.simulator(), isa::fc::kLogic, cfg, "logic2");
  sys.attach(isa::fc::kLogic, *logic2);
  auto r2 = copro.call(Assembler::assemble("XOR r4, r1, r2\nGET r4"));
  EXPECT_EQ(r2[0].payload, 13u);
}

TEST(Reconfiguration, DetachUnknownCodeThrows) {
  System sys({});
  EXPECT_THROW(sys.detach(0x7a), SimError);
}

TEST(Reconfiguration, DetachUnderStalledInstructionIsDetachBusy) {
  // The PR-1 quiescence bug, replayed against detach: an instruction can
  // sit *pre-dispatch* — stalled on a RAW hazard — with its target unit
  // holding zero locks.  The old detach only checked locks, so it would
  // yank the unit out from under an already-admitted instruction.  Set it
  // up: a slow MUL locks r1, then an ADD reading r1 stalls pre-dispatch
  // while the arithmetic unit is completely idle.
  System sys({});
  Coprocessor copro(sys);
  copro.submit(Assembler::assemble(R"(
    PUTI r2, 5
    PUTI r4, 3
    MUL r1, r2, r4
    ADD r3, r1, r2
  )"));
  sys.simulator().run_until(
      [&] {
        return sys.rtm().dispatcher().pending_function() == isa::fc::kArith;
      },
      10000);
  ASSERT_EQ(sys.rtm().dispatcher().pending_function(), isa::fc::kArith);
  // The arithmetic unit owns no locks, yet detach must refuse, typed.
  EXPECT_THROW(sys.detach(isa::fc::kArith), rtm::DetachBusy);
  // The mul/div unit has a write in flight: also DetachBusy.
  EXPECT_THROW(sys.detach(isa::fc::kMulDiv), rtm::DetachBusy);
  // Both still attached; the program completes normally afterwards.
  copro.sync();
  EXPECT_EQ(copro.read_reg(3), 15u + 5u);
  sys.detach(isa::fc::kArith);  // quiesced: allowed now
}

TEST(Reconfiguration, DrainProtocolDrainsStalledInstructionAsTypedError) {
  // Same stall, resolved the live-traffic way: begin_detach() makes the
  // dispatcher refuse the stalled ADD (it drains as a kUnitUnavailable
  // error response — retryable, unlike kUnknownFunction), the MUL's write
  // retires through the arbiter, and quiescent() is reached instead of
  // wedging on an instruction whose unit vanished.
  System sys({});
  Coprocessor copro(sys);
  copro.submit(Assembler::assemble(R"(
    PUTI r2, 5
    PUTI r4, 3
    MUL r1, r2, r4
    ADD r3, r1, r2
  )"));
  sys.simulator().run_until(
      [&] {
        return sys.rtm().dispatcher().pending_function() == isa::fc::kArith;
      },
      10000);
  ASSERT_EQ(sys.rtm().dispatcher().pending_function(), isa::fc::kArith);

  sys.begin_detach(isa::fc::kArith);
  // The stalled ADD drains as a typed error while the MUL still retires.
  const Response r = copro.wait_response();
  EXPECT_EQ(r.type, Response::Type::kError);
  EXPECT_EQ(r.code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnitUnavailable));
  sys.simulator().run_until([&] { return sys.idle(); }, 100000);
  EXPECT_TRUE(sys.rtm().quiescent()) << "drain must not wedge quiescent()";
  EXPECT_EQ(copro.read_reg(1), 15u) << "the in-flight MUL still retired";

  ASSERT_TRUE(sys.detach_drained(isa::fc::kArith));
  sys.finish_detach(isa::fc::kArith);
  // Post-drain the code stays *known*: kUnitUnavailable, not unknown.
  auto r2 = copro.call(Assembler::assemble("ADD r5, r2, r4\nSYNC"));
  ASSERT_EQ(r2.size(), 2u);
  EXPECT_EQ(r2[0].type, Response::Type::kError);
  EXPECT_EQ(r2[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnitUnavailable));
  // Reattaching makes the code dispatchable again (swap completed).
  fu::StatelessConfig cfg{.width = 32};
  auto unit2 = fu::make_arithmetic_unit(sys.simulator(), cfg, "arith2");
  sys.attach(isa::fc::kArith, *unit2);
  EXPECT_EQ(copro.call(Assembler::assemble("ADD r5, r2, r4\nGET r5"))[0]
                .payload,
            8u);
}

TEST(Reconfiguration, DeclaredUnavailableIsDistinctFromUnknown) {
  System sys({});
  Coprocessor copro(sys);
  copro.sync();
  sys.detach(isa::fc::kLogic);
  // Plain detach: unknown (nothing claims to ever serve the code again).
  auto r1 = copro.call(Assembler::assemble("AND r3, r1, r2\nSYNC"));
  EXPECT_EQ(r1[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnknownFunction));
  // Declared: a manager owns the code; instructions are retryable.
  sys.declare_unavailable(isa::fc::kLogic);
  auto r2 = copro.call(Assembler::assemble("AND r3, r1, r2\nSYNC"));
  EXPECT_EQ(r2[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnitUnavailable));
}

}  // namespace
}  // namespace fpgafu::top

#include <gtest/gtest.h>

#include "fu/fsm_fu.hpp"
#include "isa/arith.hpp"
#include "isa/assembler.hpp"
#include "support/rtm_harness.hpp"

namespace fpgafu::rtm {
namespace {

using fpgafu::testing::RtmRig;
using isa::Assembler;
using msg::Response;

TEST(RtmPipeline, PutGetRoundTrip) {
  RtmRig rig;
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUT r1, #0xcafef00d
    GET r1
  )"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].type, Response::Type::kData);
  EXPECT_EQ(responses[0].payload, 0xcafef00du);
}

TEST(RtmPipeline, WordWidthMasksPutData) {
  RtmRig rig;  // 32-bit word width by default
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUT r1, #0x1122334455667788
    GET r1
  )"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 0x55667788u);
}

TEST(RtmPipeline, CopyAndImmediates) {
  RtmRig rig;
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUTI r2, 200
    COPY r3, r2
    PUTF f1, 5
    COPYF f2, f1
    GET r3
    GETF f2
  )"));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].type, Response::Type::kData);
  EXPECT_EQ(responses[0].payload, 200u);
  EXPECT_EQ(responses[1].type, Response::Type::kFlags);
  EXPECT_EQ(responses[1].code, 5);
}

TEST(RtmPipeline, ArithmeticThroughUnit) {
  RtmRig rig;
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUT r1, #1000
    PUT r2, #234
    ADD r3, r1, r2, f1
    SUB r4, r1, r2, f2
    GET r3
    GET r4
    GETF f1
  )"));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].payload, 1234u);
  EXPECT_EQ(responses[1].payload, 766u);
  // 1000 + 234 on 32 bits: no carry, not zero, not negative, no overflow.
  EXPECT_EQ(responses[2].code, 0);
}

TEST(RtmPipeline, MultiWordAddViaCarryChain) {
  // 64-bit addition on the 32-bit datapath, exactly the thesis' multi-word
  // usage of ADC with an externally provided carry.
  const std::uint64_t x = 0xffffffff12345678ULL;
  const std::uint64_t y = 0x00000001f0000088ULL;
  RtmRig rig;
  char src[512];
  std::snprintf(src, sizeof src, R"(
    PUT r1, #%llu
    PUT r2, #%llu
    PUT r3, #%llu
    PUT r4, #%llu
    ADD r5, r1, r3, f1     ; low halves, carry into f1
    ADC r6, r2, r4, f1, f2 ; high halves consume the carry
    GET r5
    GET r6
  )",
                static_cast<unsigned long long>(x & 0xffffffff),
                static_cast<unsigned long long>(x >> 32),
                static_cast<unsigned long long>(y & 0xffffffff),
                static_cast<unsigned long long>(y >> 32));
  const auto responses = rig.run_program(Assembler::assemble(src));
  ASSERT_EQ(responses.size(), 2u);
  const std::uint64_t sum =
      (responses[1].payload << 32) | responses[0].payload;
  EXPECT_EQ(sum, x + y);
}

TEST(RtmPipeline, RawHazardStallsUntilUnitWritesBack) {
  // ADD writes r3; the COPY reading r3 must observe the sum, not stale data.
  RtmRig rig({}, fu::Skeleton::kFsm);  // slow unit -> hazard window is real
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUTI r1, 40
    PUTI r2, 2
    ADD r3, r1, r2
    COPY r4, r3
    GET r4
  )"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 42u);
  EXPECT_GT(rig.rtm.counters().get("stall.lock"), 0u);
}

TEST(RtmPipeline, WawHazardKeepsFinalValue) {
  RtmRig rig({}, fu::Skeleton::kFsm);
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUTI r1, 10
    PUTI r2, 3
    ADD r3, r1, r2     ; r3 = 13
    SUB r3, r1, r2     ; r3 = 7 (must be the final value)
    GET r3
  )"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 7u);
}

TEST(RtmPipeline, GetObservesPrecedingComputeInIssueOrder) {
  // GET is issued immediately after the ADD with no SYNC: the lock on r3
  // must make the GET wait, so the host always sees the computed value.
  RtmRig rig({}, fu::Skeleton::kFsm);
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUTI r1, 5
    PUTI r2, 6
    ADD r3, r1, r2
    GET r3
  )"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 11u);
}

TEST(RtmPipeline, SyncDrainsAllInFlightWrites) {
  RtmRig rig({}, fu::Skeleton::kFsm);
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUTI r1, 1
    PUTI r2, 2
    ADD r3, r1, r2
    ADD r4, r2, r2
    SYNC
    GET r3
    GET r4
  )"));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].type, Response::Type::kSyncDone);
  EXPECT_EQ(responses[1].payload, 3u);
  EXPECT_EQ(responses[2].payload, 4u);
  EXPECT_EQ(rig.rtm.locks().held(), 0u);
}

TEST(RtmPipeline, ResponsesArriveInIssueOrderWithMonotonicSeq) {
  RtmRig rig;
  isa::Program p;
  for (int i = 0; i < 30; ++i) {
    p.emit_put(1, static_cast<isa::Word>(i));
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = 1;
    p.emit(get);
  }
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 30u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].payload, i);
    if (i > 0) {
      EXPECT_GT(responses[i].seq, responses[i - 1].seq);
    }
  }
}

TEST(RtmPipeline, BadRegisterYieldsErrorResponseInOrder) {
  rtm::RtmConfig cfg;
  cfg.data_regs = 8;
  RtmRig rig(cfg);
  isa::Program p;
  p.emit_put(1, 77);
  isa::Instruction bad;
  bad.function = isa::fc::kRtm;
  bad.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  bad.src1 = 200;  // out of range
  p.emit(bad);
  isa::Instruction good;
  good.function = isa::fc::kRtm;
  good.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  good.src1 = 1;
  p.emit(good);
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].type, Response::Type::kError);
  EXPECT_EQ(responses[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kBadRegister));
  EXPECT_EQ(responses[1].type, Response::Type::kData);
  EXPECT_EQ(responses[1].payload, 77u);
}

TEST(RtmPipeline, UnknownFunctionCodeYieldsError) {
  RtmRig rig;
  isa::Program p;
  isa::Instruction weird;
  weird.function = 0x66;  // nothing attached
  weird.dst1 = 1;
  p.emit(weird);
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  p.emit(sync);
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].type, Response::Type::kError);
  EXPECT_EQ(responses[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnknownFunction));
  EXPECT_EQ(responses[1].type, Response::Type::kSyncDone);
}

TEST(RtmPipeline, OutOfOrderCompletionIsArchitecturallyInvisible) {
  // A slow FSM-based unit and a fast minimal unit complete out of order,
  // but the response stream (GETs) reflects issue order and correct values.
  rtm::RtmConfig cfg;
  RtmRig rig(cfg, fu::Skeleton::kMinimal, /*attach_units=*/false);
  fu::StatelessConfig slow_cfg{.width = 32,
                               .skeleton = fu::Skeleton::kFsm,
                               .execute_cycles = 16};
  fu::StatelessConfig fast_cfg{.width = 32,
                               .skeleton = fu::Skeleton::kMinimal};
  rig.units.push_back(fu::make_arithmetic_unit(rig.sim, slow_cfg, "slow"));
  rig.units.push_back(
      fu::make_stock_unit(rig.sim, isa::fc::kLogic, fast_cfg, "fast"));
  rig.rtm.attach(isa::fc::kArith, *rig.units[0]);
  rig.rtm.attach(isa::fc::kLogic, *rig.units[1]);

  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUTI r1, 9
    PUTI r2, 5
    ADD r3, r1, r2     ; slow unit: completes late
    AND r4, r1, r2     ; fast unit: completes first (different dst -> no stall)
    GET r3
    GET r4
  )"));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].payload, 14u);  // issue order preserved
  EXPECT_EQ(responses[1].payload, 1u);   // 9 & 5
  // The fast unit really did finish before the slow one: its write happened
  // while the slow unit still held its lock (observable via the counters —
  // at least one lock stall was taken by the GET on r3).
  EXPECT_GT(rig.rtm.counters().get("stall.lock"), 0u);
}

TEST(RtmPipeline, NopsFlowThroughWithoutResponses) {
  RtmRig rig;
  isa::Program p;
  for (int i = 0; i < 50; ++i) {
    p.emit(isa::Instruction{});  // all-zero word = NOP
  }
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  p.emit(sync);
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].type, Response::Type::kSyncDone);
}

TEST(RtmPipeline, PipelinedUnitSustainsOneInstructionPerCycle) {
  rtm::RtmConfig cfg;
  RtmRig rig(cfg, fu::Skeleton::kPipelined);
  // Fill two source registers, then issue a burst of independent ADDs
  // cycling across destination registers.
  isa::Program p;
  p.emit_put(1, 11);
  p.emit_put(2, 22);
  const int kOps = 64;
  for (int i = 0; i < kOps; ++i) {
    isa::Instruction add;
    add.function = isa::fc::kArith;
    add.variety = isa::arith::variety(isa::arith::Op::kAdd);
    add.dst1 = static_cast<isa::RegNum>(3 + (i % 8));
    add.dst_flag = static_cast<isa::RegNum>(i % 4);
    add.src1 = 1;
    add.src2 = 2;
    p.emit(add);
  }
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  p.emit(sync);

  for (const isa::Word w : p.words()) {
    rig.prod.push(w);
  }
  const auto cycles = rig.sim.run_until(
      [&] { return rig.cons.received().size() == 1; }, 5000);
  // Sustained dispatch of 64 ADDs with periodic WAW stalls (8 destination
  // registers, depth-3 pipeline) finishes in a small multiple of kOps —
  // not the ~4x a non-pipelined unit needs.
  EXPECT_LE(cycles, static_cast<std::uint64_t>(kOps) * 2 + 40);
  EXPECT_EQ(rig.rtm.regs().read(5), 33u);
}

TEST(RtmPipeline, SettleIterationsStayBounded) {
  RtmRig rig;
  rig.run_program(Assembler::assemble(R"(
    PUT r1, #3
    PUT r2, #4
    ADD r3, r1, r2
    GET r3
  )"));
  // The combinational chains (decoder -> dispatcher -> execution -> encoder
  // ready/valid) settle quickly; a blow-up here means an accidental
  // combinational cycle somewhere.
  EXPECT_LE(rig.sim.max_settle_iterations(), 12u);
}

}  // namespace
}  // namespace fpgafu::rtm

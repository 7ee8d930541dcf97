#include <gtest/gtest.h>

#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "support/program_gen.hpp"
#include "support/rtm_harness.hpp"
#include "util/rng.hpp"

namespace fpgafu::rtm {
namespace {

using fpgafu::testing::RtmRig;
using isa::Assembler;
using msg::Response;

TEST(RtmBurst, PutVecGetVecRoundTrip) {
  RtmRig rig;
  Xoshiro256 rng(3);
  std::vector<isa::Word> values(10);
  for (auto& v : values) {
    v = rng.below(1u << 30);
  }
  isa::Program p;
  p.emit_put_vec(4, values);
  p.emit_get_vec(4, 10);
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(responses[i].type, Response::Type::kData);
    EXPECT_EQ(responses[i].payload, values[i]) << "element " << i;
    EXPECT_EQ(responses[i].seq, responses[0].seq);  // one instruction
  }
}

TEST(RtmBurst, BurstHalvesLinkTraffic) {
  // n scalar PUTs of values at or above 2^32 (too wide for PUTI) cost 2n
  // stream words; one PUTV costs 1 + n.
  std::vector<isa::Word> values(16, isa::Word{7} << 32);
  isa::Program scalar;
  for (std::size_t i = 0; i < values.size(); ++i) {
    scalar.emit_put(static_cast<isa::RegNum>(1 + i), values[i]);
  }
  isa::Program burst;
  burst.emit_put_vec(1, values);
  EXPECT_EQ(scalar.size_words(), 32u);
  EXPECT_EQ(burst.size_words(), 17u);
}

TEST(RtmBurst, OutOfRangePutVecReportsOnceAndKeepsAlignment) {
  rtm::RtmConfig cfg;
  cfg.data_regs = 8;
  RtmRig rig(cfg);
  isa::Program p;
  p.emit_put_vec(6, {1, 2, 3});  // r6, r7, r8: r8 does not exist
  p.emit_put(2, 99);             // must still decode correctly afterwards
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 2;
  p.emit(get);
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].type, Response::Type::kError);
  EXPECT_EQ(responses[1].payload, 99u);
  // The faulting burst wrote nothing.
  EXPECT_EQ(rig.rtm.regs().read(6), 0u);
  EXPECT_EQ(rig.rtm.regs().read(7), 0u);
}

TEST(RtmBurst, GetVecAcrossFileEndMixesDataAndErrors) {
  rtm::RtmConfig cfg;
  cfg.data_regs = 8;
  RtmRig rig(cfg);
  isa::Program p;
  p.emit_put(6, 66);
  p.emit_put(7, 77);
  p.emit_get_vec(6, 4);  // r6, r7 valid; r8, r9 out of range
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].payload, 66u);
  EXPECT_EQ(responses[1].payload, 77u);
  EXPECT_EQ(responses[2].type, Response::Type::kError);
  EXPECT_EQ(responses[3].type, Response::Type::kError);
}

TEST(RtmBurst, ZeroLengthBurstsAreNops) {
  RtmRig rig;
  isa::Program p;
  p.emit_put_vec(1, {});
  p.emit_get_vec(1, 0);
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  p.emit(sync);
  const auto responses = rig.run_program(p);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].type, Response::Type::kSyncDone);
}

TEST(RtmBurst, AssemblerPutvWordSyntax) {
  RtmRig rig;
  const auto responses = rig.run_program(Assembler::assemble(R"(
    PUTV r3, 3
    .word #10
    .word #0x14
    .word #30
    GETV r3, 3
  )"));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].payload, 10u);
  EXPECT_EQ(responses[1].payload, 20u);
  EXPECT_EQ(responses[2].payload, 30u);
}

TEST(RtmBurst, DisassembleRoundTripWithBursts) {
  isa::Program p;
  p.emit_put_vec(2, {0x11, 0x22});
  p.emit_get_vec(2, 2);
  const auto lines = isa::disassemble(p.words());
  std::string rejoined;
  for (const auto& line : lines) {
    rejoined += line + "\n";
  }
  const isa::Program p2 = Assembler::assemble(rejoined);
  EXPECT_EQ(p2.words(), p.words());
}

TEST(RtmBurst, BurstsInterleavedWithComputeMatchReference) {
  // Differential soak with bursts enabled (program_gen emits PUTV/GETV).
  rtm::RtmConfig cfg;
  cfg.data_regs = 16;
  cfg.flag_regs = 4;
  for (const std::uint64_t seed : {7100u, 7101u, 7102u, 7103u}) {
    fpgafu::testing::ProgramGenOptions opt;
    opt.instructions = 150;
    opt.include_errors = seed % 2 == 1;
    const isa::Program program =
        fpgafu::testing::random_program(cfg, seed, opt);
    RtmRig rig(cfg, fu::Skeleton::kPipelined);
    const auto hw = rig.run_program(program);
    host::ReferenceModel model(cfg);
    const auto expect = model.run(program);
    ASSERT_EQ(hw.size(), expect.size()) << "seed " << seed;
    for (std::size_t i = 0; i < hw.size(); ++i) {
      ASSERT_EQ(hw[i], expect[i]) << "seed " << seed << " response " << i;
    }
  }
}

}  // namespace
}  // namespace fpgafu::rtm

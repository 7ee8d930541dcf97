#include "top/system.hpp"

#include <gtest/gtest.h>

#include "host/coprocessor.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "support/program_gen.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace fpgafu::top {
namespace {

using host::Coprocessor;
using isa::Assembler;
using msg::Response;

TEST(System, EndToEndArithmetic) {
  System sys({});
  Coprocessor copro(sys);
  const auto responses = copro.call(Assembler::assemble(R"(
    PUT r1, #6
    PUT r2, #7
    ADD r3, r1, r2
    GET r3
  )"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 13u);
}

TEST(System, RegisterAccessHelpers) {
  System sys({});
  Coprocessor copro(sys);
  copro.write_reg(4, 0x12345678);
  EXPECT_EQ(copro.read_reg(4), 0x12345678u);
  // CMP sets flags; read them back.
  isa::Program p = Assembler::assemble("CMP r4, r4, f1");
  copro.submit(p);
  copro.sync();
  const isa::FlagWord f = copro.read_flags(1);
  EXPECT_TRUE((f & (1u << isa::flag::kZero)) != 0);
}

TEST(System, SlowSerialLinkStillCorrect) {
  SystemConfig cfg;
  cfg.link_down = msg::kSerialLink.timing;
  cfg.link_up = msg::kSerialLink.timing;
  System sys(cfg);
  Coprocessor copro(sys);
  const auto start = sys.simulator().cycle();
  const isa::Program program = Assembler::assemble(R"(
    PUT r1, #100
    PUT r2, #42
    SUB r3, r1, r2
    GET r3
  )");
  const auto responses = copro.call(program);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 58u);
  // The stream words (2 link words each) go down at the serial interval
  // and dominate the runtime — the paper's "slow connection" observation.
  const std::uint64_t link_words = 2 * program.size_words();
  EXPECT_GT(sys.simulator().cycle() - start,
            (link_words - 1) * msg::kSerialLink.timing.interval);
}

TEST(System, DifferentialAgainstReferenceThroughFullPath) {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 16;
  rcfg.flag_regs = 4;
  for (const std::uint64_t seed : {400u, 401u, 402u}) {
    SystemConfig cfg;
    cfg.rtm = rcfg;
    System sys(cfg);
    Coprocessor copro(sys);
    fpgafu::testing::ProgramGenOptions opt;
    opt.instructions = 120;
    opt.include_errors = true;
    const isa::Program program =
        fpgafu::testing::random_program(rcfg, seed, opt);
    const auto hw = copro.call(program);
    host::ReferenceModel model(rcfg);
    const auto expect = model.run(program);
    ASSERT_EQ(hw.size(), expect.size()) << "seed " << seed;
    for (std::size_t i = 0; i < hw.size(); ++i) {
      ASSERT_EQ(hw[i], expect[i]) << "seed " << seed << " response " << i;
    }
  }
}

TEST(System, DifferentialUnderRandomLinkTimings) {
  // Fuzz the transceiver: arbitrary latency/interval in both directions
  // must never change architectural behaviour, only timing.
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 12;
  rcfg.flag_regs = 4;
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 6; ++trial) {
    SystemConfig cfg;
    cfg.rtm = rcfg;
    cfg.link_down = {static_cast<std::uint32_t>(rng.range(1, 20)),
                     static_cast<std::uint32_t>(rng.range(1, 12))};
    cfg.link_up = {static_cast<std::uint32_t>(rng.range(1, 20)),
                   static_cast<std::uint32_t>(rng.range(1, 12))};
    System sys(cfg);
    Coprocessor copro(sys);
    fpgafu::testing::ProgramGenOptions opt;
    opt.instructions = 60;
    const isa::Program program =
        fpgafu::testing::random_program(rcfg, 9000 + rng.next() % 1000, opt);
    const auto hw = copro.call(program);
    host::ReferenceModel model(rcfg);
    const auto expect = model.run(program);
    ASSERT_EQ(hw.size(), expect.size()) << "trial " << trial;
    for (std::size_t i = 0; i < hw.size(); ++i) {
      ASSERT_EQ(hw[i], expect[i]) << "trial " << trial << " response " << i;
    }
  }
}

TEST(System, TruncatedPutLeavesPipelineWaitingNotBroken) {
  // Failure injection: a PUT whose data word never arrives.  The decoder
  // waits (there is no timeout in hardware); the host-side watchdog is the
  // recovery mechanism.  Sending the missing word later completes the
  // operation normally.
  System sys({});
  Coprocessor copro(sys);
  isa::Instruction put;
  put.function = isa::fc::kRtm;
  put.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kPut);
  put.dst1 = 1;
  copro.submit_word(put.encode());  // ... and no payload
  sys.simulator().run(200);
  EXPECT_FALSE(sys.idle());  // decoder is holding the half-finished PUT
  // The host watchdog would fire here; instead, supply the payload.
  copro.submit_word(0xabcdef);
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 1;
  copro.submit_word(get.encode());
  const msg::Response r = copro.wait_response();
  EXPECT_EQ(r.payload, 0xabcdefu);
}

TEST(System, WallClockProjection) {
  SystemConfig cfg;
  cfg.clock_mhz = 50.0;  // the paper's Cyclone
  System sys(cfg);
  EXPECT_DOUBLE_EQ(sys.cycles_to_us(50), 1.0);
  EXPECT_DOUBLE_EQ(sys.cycles_to_us(5000), 100.0);
}

TEST(System, IdleReflectsInFlightWork) {
  System sys({});
  Coprocessor copro(sys);
  EXPECT_TRUE(sys.idle());
  copro.submit(Assembler::assemble("PUT r1, #5\nGET r1"));
  EXPECT_FALSE(sys.idle());  // words sit in the link
  copro.call(isa::Program{});  // drain
  while (copro.poll().has_value()) {
  }
  EXPECT_TRUE(sys.idle());
}

TEST(System, UserUnitAttachment) {
  // A user-defined "population count" unit on a custom function code,
  // exactly the framework's extension story.
  System sys({});
  fu::StatelessConfig ucfg;
  ucfg.width = 32;
  auto popcount_fn = [](isa::VarietyCode, isa::Word a, isa::Word,
                        isa::FlagWord) {
    return fu::StatelessOut{bits::popcount(a, 32), 0, true, true};
  };
  auto unit = fu::make_stateless_unit(sys.simulator(), "popcount",
                                      popcount_fn, ucfg);
  sys.attach(isa::fc::kUserBase, *unit);

  Coprocessor copro(sys);
  isa::Program p;
  p.emit_put(1, 0xf0f0f0f0);
  isa::Instruction pc;
  pc.function = isa::fc::kUserBase;
  pc.variety = 0;
  pc.dst1 = 2;
  pc.src1 = 1;
  p.emit(pc);
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 2;
  p.emit(get);
  const auto responses = copro.call(p);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 16u);
}

}  // namespace
}  // namespace fpgafu::top

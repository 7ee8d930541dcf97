// One transmit path: every word the host sends leaves from the one pump loop
// of the call that sent it, so a blocking call's Deadline also bounds its
// sends, and ReliableTransport::service() never advances the clock.  The
// stuck-unit tests back a bounded downlink up behind a unit that never takes
// an instruction, so the sends themselves can only end by the call's budget.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "host/algod.hpp"
#include "host/coprocessor.hpp"
#include "host/farm.hpp"
#include "host/reference_model.hpp"
#include "host/reliable_transport.hpp"
#include "isa/assembler.hpp"
#include "support/stuck_unit.hpp"
#include "top/system.hpp"
#include "util/error.hpp"

namespace fpgafu::host {
namespace {

using testing::stuck_config;
using testing::stuck_image;
using testing::stuck_program;
using testing::StuckUnit;

constexpr std::uint64_t kBudget = 5000;

TEST(SendPath, TransportCallBehindAStuckUnitThrowsOnItsBudget) {
  top::System sys(stuck_config());
  StuckUnit stuck(sys.simulator(), "stuck");
  sys.rtm().attach(isa::fc::kLogic, stuck);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  const std::uint64_t start = sys.simulator().cycle();
  EXPECT_THROW(transport.call(stuck_program(), kBudget), SimError);
  EXPECT_EQ(sys.simulator().cycle(), start + kBudget);
}

TEST(SendPath, CoprocessorCallBehindAStuckUnitThrowsOnItsBudget) {
  top::System sys(stuck_config());
  StuckUnit stuck(sys.simulator(), "stuck");
  sys.rtm().attach(isa::fc::kLogic, stuck);
  Coprocessor copro(sys);
  const std::uint64_t start = sys.simulator().cycle();
  EXPECT_THROW(copro.call(stuck_program(), kBudget), SimError);
  EXPECT_EQ(sys.simulator().cycle(), start + kBudget);
}

TEST(SendPath, InlineFarmJobBehindAStuckUnitFailsWithAShardFault) {
  FarmConfig fc;
  fc.shards = 0;
  fc.system = stuck_config();
  fc.fu_slots = 1;
  fc.fu_images.push_back(stuck_image());
  Farm farm(fc);
  const Farm::SessionId session = farm.create_session({"stuck"});
  auto result = farm.submit(session, stuck_program(), kBudget);
  try {
    result.get();
    FAIL() << "a job behind a stuck unit must fail";
  } catch (const FarmError& e) {
    EXPECT_EQ(e.kind(), FarmError::Kind::kShardFault);
  }
}

TEST(SendPath, TransportServiceSendsWithoutAdvancingTheClock) {
  // One service() issues a program longer than the downlink holds: the
  // link takes what fits, the rest waits in the driver, and the clock does
  // not move.  A pump then sends the rest in order.
  top::SystemConfig cfg;
  cfg.link_down_capacity = 2;
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  const isa::Program p = isa::Assembler::assemble(R"(
    PUT r1, #41
    PUT r2, #1
    ADD r3, r1, r2
    GET r3
    GET r1
  )");
  transport.submit(p);
  const std::uint64_t before = sys.simulator().cycle();
  transport.service();
  EXPECT_EQ(sys.simulator().cycle(), before);
  EXPECT_GT(copro.driver().tx_pending(), 0u);

  std::optional<ReliableTransport::Completion> done;
  copro.pump().run_until(
      [&] {
        transport.service();
        done = transport.poll_completed();
        return done ? Wake::done() : transport.next_wake();
      },
      Deadline(sys.simulator(), 100000), "send test");
  EXPECT_EQ(done->responses, ReferenceModel(cfg.rtm).run(p));
}

TEST(SendPath, AWatchdogDuringTheSendLeavesTheNextCallWhole) {
  // The first program's watchdog fires while most of it still waits for
  // the slow multiplies ahead of it to free the downlink.  Its words keep
  // going out after the throw, so the decoder sees whole instructions and
  // numbers them as the transport counted them: the next call is exact.
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;  // 64-cycle multiplies
  cfg.link_down_capacity = 2;
  std::string text = "PUTI r1, 7\n";
  for (int i = 0; i < 8; ++i) {
    text += "MUL r2, r1, r1, f1\nPUT r3, #5\n";
  }
  text += "GET r2\n";
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  EXPECT_THROW(transport.call(isa::Assembler::assemble(text), 100), SimError);
  EXPECT_GT(copro.driver().tx_pending(), 0u);
  const isa::Program next = isa::Assembler::assemble("PUTI r5, 3\nGET r5");
  EXPECT_EQ(transport.call(next, 100'000), ReferenceModel(cfg.rtm).run(next));
}

TEST(SendPath, SubmitReturnsOnceItsWordsAreOnTheLink) {
  // On an unbounded downlink every word leaves inside submit(), which then
  // returns on the same cycle; on a bounded one it pumps until the last
  // refused word is sent.
  isa::Program p;
  p.emit_put_vec(1, {1, 2, 3, 4, 5, 6});
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(capacity);
    top::SystemConfig cfg;
    cfg.link_down_capacity = capacity;
    top::System sys(cfg);
    Coprocessor copro(sys);
    copro.submit(p);
    EXPECT_TRUE(copro.driver().tx_drained());
    EXPECT_EQ(sys.simulator().cycle() > 0, capacity != 0);
    EXPECT_EQ(copro.read_reg(6), 6u);
  }
}

TEST(SendPath, WordsEnqueuedBehindRefusedOnesKeepTheirOrder) {
  // The clock moves without a service, so the downlink has room again
  // while words still wait in the driver: a later enqueue must queue
  // behind them, not overtake them onto the link.  The value is too wide
  // for PUTI, so its data word waits behind the refused ones.
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;
  cfg.link_down_capacity = 2;
  top::System sys(cfg);
  Driver driver(sys);
  isa::Program put;
  put.emit_put(1, 0xbeef'0000'beefu);
  driver.enqueue(put);
  ASSERT_EQ(driver.tx_pending(), 2u);
  sys.simulator().run(20);
  const isa::Program get = isa::Assembler::assemble("GET r1");
  driver.enqueue(get);
  std::optional<msg::Response> r;
  Pump(sys.simulator(), driver)
      .run_until(
          [&] {
            return (r = driver.poll()).has_value() ? Wake::done()
                                                   : Wake::on_link();
          },
          Deadline(sys.simulator(), 1000), "ordered get");
  EXPECT_EQ(r->payload, 0xbeef'0000'beefu);
}

TEST(SendPath, WordsEnqueuedAfterAResetSurviveIt) {
  // A reset discards the words still queued from before it, but not the
  // ones enqueued after it, even before the driver has serviced since.
  top::SystemConfig cfg;
  cfg.link_down_capacity = 1;
  top::System sys(cfg);
  Driver driver(sys);
  driver.enqueue(isa::Assembler::assemble("GET r0"));
  ASSERT_EQ(driver.tx_pending(), 1u);
  sys.simulator().reset();
  sys.rtm().clear_state();
  driver.enqueue(isa::Assembler::assemble("GET r0"));
  std::optional<msg::Response> r;
  Pump(sys.simulator(), driver)
      .run_until(
          [&] {
            return (r = driver.poll()).has_value() ? Wake::done()
                                                   : Wake::on_link();
          },
          Deadline(sys.simulator(), 1000), "get after reset");
  EXPECT_EQ(r->type, msg::Response::Type::kData);
}

}  // namespace
}  // namespace fpgafu::host

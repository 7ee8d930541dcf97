#include "host/driver.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/reference_model.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"
#include "util/error.hpp"

namespace fpgafu::host {
namespace {

isa::Instruction make_get(isa::RegNum reg) {
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = reg;
  return get;
}

TEST(Deadline, BudgetAccounting) {
  top::System sys({});
  sim::Simulator& sim = sys.simulator();
  Deadline d(sim, 10);
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), 10u);
  sim.run(4);
  EXPECT_EQ(d.spent(), 4u);
  EXPECT_EQ(d.remaining(), 6u);
  sim.run(6);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), 0u);
  EXPECT_THROW(d.enforce("test"), SimError);
}

TEST(Deadline, UnboundedNeverExpires) {
  top::System sys({});
  Deadline d = Deadline::unbounded(sys.simulator());
  EXPECT_TRUE(d.unlimited());
  sys.simulator().run(1000);
  EXPECT_FALSE(d.expired());
  d.enforce("test");  // no throw
}

TEST(Deadline, SurvivesSimulatorReset) {
  // A reset rewinds the cycle counter; a deadline observed across the
  // rewind keeps the budget already consumed instead of re-arming.
  top::System sys({});
  sim::Simulator& sim = sys.simulator();
  Deadline d(sim, 100);
  sim.run(60);
  d.observe();
  EXPECT_EQ(d.spent(), 60u);
  sim.reset();
  d.observe();  // cycle counter is 0 again; spent must still be 60
  EXPECT_EQ(d.spent(), 60u);
  sim.run(40);
  d.observe();
  EXPECT_TRUE(d.expired());
}

TEST(Driver, EnqueueIsNonBlockingAndServiceDrains) {
  // A downstream buffer of 2 link words cannot hold one 2-stream-word PUT
  // (4 link words; the value is too wide for PUTI); enqueue must still
  // return immediately, with the link taking what it can at once, and
  // service must move the rest out as the link drains — the Driver never
  // steps the clock.
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;
  cfg.link_down_capacity = 2;
  top::System sys(cfg);
  Driver driver(sys);

  const std::uint64_t before = sys.simulator().cycle();
  isa::Program p;
  p.emit_put(1, 0xbeef'0000'beefu);
  driver.enqueue(p);
  EXPECT_EQ(driver.tx_pending(), 2u);  // link accepted its 2-word capacity
  EXPECT_EQ(sys.simulator().cycle(), before);
  driver.service();
  driver.service();  // idempotent: no space freed, nothing moves
  EXPECT_EQ(driver.tx_pending(), 2u);
  EXPECT_EQ(sys.simulator().cycle(), before);  // never advanced the clock

  // Let the link move words and the driver finish the transfer.
  Pump pump(sys.simulator(), driver);
  pump.run_until(
      [&] { return driver.tx_drained() ? Wake::done() : Wake::on_link(); },
      Deadline(sys.simulator(), 1000), "test drain");
  EXPECT_TRUE(driver.tx_drained());

  // The PUT lands: read it back through a second driver exchange.
  const isa::Word get = make_get(1).encode();
  driver.enqueue(std::span(&get, 1));
  std::optional<msg::Response> r;
  pump.run_until(
      [&] {
        return (r = driver.poll()).has_value() ? Wake::done()
                                               : Wake::on_link();
      },
      Deadline(sys.simulator(), 100000), "test get");
  EXPECT_EQ(r->payload, 0xbeef'0000'beefu);
  EXPECT_EQ(driver.responses_received(), 1u);
}

TEST(Driver, ResetDropsQueuedAndPartialWords) {
  top::SystemConfig cfg;
  cfg.link_down_capacity = 1;
  top::System sys(cfg);
  Driver driver(sys);
  const isa::Word word = 0x1234;
  driver.enqueue(std::span(&word, 1));
  driver.service();
  EXPECT_GT(driver.tx_pending(), 0u);
  driver.reset();
  EXPECT_TRUE(driver.tx_drained());
}

TEST(Driver, SystemResetDiscardsStaleState) {
  // A simulator reset under the driver must clear both directions: unsent
  // tx words would desynchronise the 64-bit stream pairing, and partially
  // deframed rx words would shift every later frame.
  top::SystemConfig cfg;
  cfg.link_down_capacity = 1;
  top::System sys(cfg);
  Driver driver(sys);
  const isa::Word word = 0xdead;
  driver.enqueue(std::span(&word, 1));
  driver.service();
  EXPECT_FALSE(driver.tx_drained());
  sys.simulator().reset();
  sys.rtm().clear_state();
  driver.service();  // notices the reset generation bump
  EXPECT_TRUE(driver.tx_drained());
}

TEST(Pump, RunUntilCountsCyclesAndEnforcesDeadline) {
  top::System sys({});
  Driver driver(sys);
  Pump pump(sys.simulator(), driver);

  const std::uint64_t start = sys.simulator().cycle();
  const std::uint64_t spent = pump.run_until(
      [&] {
        return sys.simulator().cycle() >= start + 7 ? Wake::done()
                                                    : Wake::at(start + 7);
      },
      Deadline(sys.simulator(), 100), "test");
  EXPECT_EQ(spent, 7u);

  EXPECT_THROW(pump.run_until([] { return Wake::on_link(); },
                              Deadline(sys.simulator(), 25), "wedge"),
               SimError);
}

TEST(Pump, DeadlineDiagnosticNamesTheOperation) {
  top::System sys({});
  Driver driver(sys);
  Pump pump(sys.simulator(), driver);
  try {
    pump.run_until([] { return Wake::on_link(); }, Deadline(sys.simulator(), 3),
                   "MyOperation");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("MyOperation"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3 cycles"), std::string::npos);
  }
}

TEST(Pump, PredicateExceptionStopsTheClockInPlace) {
  top::System sys({});
  Driver driver(sys);
  Pump pump(sys.simulator(), driver);
  int calls = 0;
  EXPECT_THROW(pump.run_until(
                   [&] {
                     if (++calls == 3) {
                       throw SimError("predicate abort");
                     }
                     return Wake::at(0);  // every cycle
                   },
                   Deadline(sys.simulator(), 1000), "test"),
               SimError);
  EXPECT_EQ(sys.simulator().cycle(), 2u);  // stepped twice before the throw
}

TEST(Pump, QuietWaitsStillWakeTheHostEveryKMaxQuietCycles) {
  // An idle system with nothing in flight has no event at all: the kernel
  // skips, yet the host side still runs at least every kMaxQuiet cycles
  // (work queued by other threads is seen there), never less often.
  top::System sys({});
  Driver driver(sys);
  Pump pump(sys.simulator(), driver);
  std::vector<std::uint64_t> runs;
  const std::uint64_t start = sys.simulator().cycle();
  const std::uint64_t steps = sys.simulator().steps_performed();
  pump.run_until(
      [&] {
        runs.push_back(sys.simulator().cycle());
        return runs.back() >= start + 1000 ? Wake::done() : Wake::on_link();
      },
      Deadline::unbounded(sys.simulator()), "quiet wait");
  // 64 cycles is the bound docs/FARM.md promises for cross-thread work.
  ASSERT_LE(Pump::kMaxQuiet, 64u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_LE(runs[i] - runs[i - 1], Pump::kMaxQuiet) << "run " << i;
  }
  EXPECT_LT(sys.simulator().cycle(), start + 1000 + Pump::kMaxQuiet);
  EXPECT_LT(sys.simulator().steps_performed() - steps, 100u);  // skipped
}

TEST(CoprocessorFacade, SharedDriverAndPumpSeeTheSameTraffic) {
  // The Coprocessor is a façade: its driver()/pump() accessors expose the
  // same state machine the blocking conveniences use.
  top::System sys({});
  Coprocessor copro(sys);
  copro.write_reg(2, 55);
  EXPECT_TRUE(copro.driver().tx_drained());
  EXPECT_EQ(copro.read_reg(2), 55u);
  EXPECT_EQ(copro.driver().responses_received(), copro.responses_received());
}

TEST(SystemConfigValidate, RejectsDegenerateConfigs) {
  {
    top::SystemConfig cfg;
    cfg.clock_mhz = 0.0;
    EXPECT_THROW(top::System{cfg}, SimError);
    EXPECT_THROW(cfg.validate(), SimError);
  }
  {
    top::SystemConfig cfg;
    cfg.clock_mhz = -50.0;
    EXPECT_THROW(top::System{cfg}, SimError);
  }
  {
    top::SystemConfig cfg;
    cfg.message_buffer_depth = 0;
    EXPECT_THROW(top::System{cfg}, SimError);
  }
  {
    top::SystemConfig cfg;
    cfg.serializer_depth = 0;
    EXPECT_THROW(top::System{cfg}, SimError);
  }
  // The default configuration stays valid.
  top::SystemConfig{}.validate();
}

TEST(SystemConfigValidate, ErrorNamesTheField) {
  top::SystemConfig cfg;
  cfg.message_buffer_depth = 0;
  try {
    cfg.validate();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("message_buffer_depth"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace fpgafu::host

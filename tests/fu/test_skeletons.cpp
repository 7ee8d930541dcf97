#include <gtest/gtest.h>

#include <deque>

#include "fu/cam_unit.hpp"
#include "fu/conformance.hpp"
#include "fu/fsm_fu.hpp"
#include "fu/minimal_fu.hpp"
#include "fu/pipelined_fu.hpp"
#include "fu/prng_unit.hpp"
#include "fu/scratchpad_unit.hpp"
#include "fu/stateless_units.hpp"
#include "support/fu_harness.hpp"

namespace fpgafu::fu {
namespace {

using fpgafu::testing::FuDriver;

/// A trivial core: value = operand1 + operand2 (no flags).
StatelessFn adder_core() {
  return [](isa::VarietyCode, isa::Word a, isa::Word b, isa::FlagWord) {
    return StatelessOut{a + b, 0, true, false};
  };
}

/// A core that produces no output at all (exercises the Fig. 6
/// "Completion / No output" edge).
StatelessFn silent_core() {
  return [](isa::VarietyCode, isa::Word, isa::Word, isa::FlagWord) {
    return StatelessOut{0, 0, false, false};
  };
}

FuRequest req(isa::Word a, isa::Word b, isa::RegNum dst = 1) {
  FuRequest r;
  r.operand1 = a;
  r.operand2 = b;
  r.dst_reg = dst;
  return r;
}

/// A unit that counts its own eval() and commit() calls.
template <typename Unit>
class Counted : public Unit {
 public:
  using Unit::Unit;

  void eval() override {
    ++evals;
    Unit::eval();
  }
  void commit() override {
    ++commits;
    Unit::commit();
  }

  std::uint64_t evals = 0;
  std::uint64_t commits = 0;
};

/// Dispatcher and write arbiter in one, with an acknowledgement the test
/// switches on and off (FuDriver draws its acknowledgements from a duty
/// cycle).
class HandDriver : public sim::Component {
 public:
  HandDriver(sim::Simulator& sim, FuPorts& ports)
      : Component(sim, "hand"), ports_(&ports) {
    make_always_active();  // `ack` is host state the kernel cannot see
  }

  void eval() override {
    ports_->dispatch.set(!queue.empty() && ports_->idle.get());
    if (!queue.empty()) {
      ports_->request.set(queue.front());
    }
    ports_->data_acknowledge.set(ack && ports_->data_ready.get());
  }

  void commit() override {
    if (ports_->dispatch.get() && ports_->idle.get()) {
      queue.pop_front();
    }
    if (ports_->data_ready.get() && ports_->data_acknowledge.get()) {
      completions.push_back(ports_->result.get());
    }
  }

  std::deque<FuRequest> queue;
  bool ack = false;
  std::vector<FuResult> completions;

 private:
  FuPorts* ports_;
};

// ---------------------------------------------------------------------------
// Minimal skeleton (paper Fig. 5).

TEST(MinimalFu, ComputesAndRoutesResult) {
  sim::Simulator sim;
  MinimalFu fu(sim, "fu", adder_core());
  FuDriver drv(sim, "drv", fu.ports);
  ConformanceMonitor mon(sim, "mon", fu.ports);
  drv.enqueue(req(40, 2, /*dst=*/5));
  sim.run_until([&] { return drv.completions().size() == 1; }, 50);
  const FuResult& r = drv.completions().front().result;
  EXPECT_EQ(r.data, 42u);
  EXPECT_EQ(r.dst_reg, 5);
  EXPECT_TRUE(r.write_data);
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST(MinimalFu, AcceptsEverySecondCycleWithoutForwarding) {
  // Thesis §3.2.2: "Due to their simple design they are able to accept an
  // instruction every second clock cycle."
  sim::Simulator sim;
  MinimalFu fu(sim, "fu", adder_core(), /*ack_forward=*/false);
  FuDriver drv(sim, "drv", fu.ports);
  for (int i = 0; i < 20; ++i) {
    drv.enqueue(req(static_cast<isa::Word>(i), 1));
  }
  sim.run_until([&] { return drv.completions().size() == 20; }, 200);
  const auto& d = drv.dispatch_cycles();
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_EQ(d[i] - d[i - 1], 2u) << "dispatch " << i;
  }
}

TEST(MinimalFu, ForwardingReachesOnePerCycle) {
  // "This could be improved to a theoretical maximum throughput of one
  // instruction every clock cycle by intelligent forwarding of the write
  // arbiter acknowledgement signals."
  sim::Simulator sim;
  MinimalFu fu(sim, "fu", adder_core(), /*ack_forward=*/true);
  FuDriver drv(sim, "drv", fu.ports);
  ConformanceMonitor mon(sim, "mon", fu.ports);
  for (int i = 0; i < 20; ++i) {
    drv.enqueue(req(static_cast<isa::Word>(i), 1));
  }
  sim.run_until([&] { return drv.completions().size() == 20; }, 200);
  const auto& d = drv.dispatch_cycles();
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_EQ(d[i] - d[i - 1], 1u) << "dispatch " << i;
  }
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST(MinimalFu, HoldsResultUntilAcknowledged) {
  sim::Simulator sim;
  MinimalFu fu(sim, "fu", adder_core());
  // Arbiter acknowledges only 1 cycle in 5.
  FuDriver drv(sim, "drv", fu.ports, 1, 5, 123);
  ConformanceMonitor mon(sim, "mon", fu.ports);
  for (int i = 0; i < 10; ++i) {
    drv.enqueue(req(static_cast<isa::Word>(i), 100));
  }
  sim.run_until([&] { return drv.completions().size() == 10; }, 1000);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(drv.completions()[i].result.data, 100 + i);
  }
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST(MinimalFu, AckEdgeReevaluatesOnlyAForwardingUnit) {
  // Only the forwarding unit's idle depends on the acknowledgement; any
  // other samples it in commit() alone, so the ack edge that retires its
  // result arms its commit and leaves its eval asleep.
  for (const bool forward : {false, true}) {
    SCOPED_TRACE(forward ? "forwarding" : "not forwarding");
    sim::Simulator sim;
    Counted<MinimalFu> fu(sim, "fu", adder_core(), forward);
    HandDriver drv(sim, fu.ports);
    drv.queue.push_back(req(40, 2));
    for (int i = 0; i < 4; ++i) {
      sim.step();  // accept, then wait on the withheld acknowledgement
    }
    ASSERT_TRUE(fu.ports.data_ready.peek());
    const std::uint64_t evals = fu.evals;
    const std::uint64_t commits = fu.commits;
    drv.ack = true;
    sim.step();
    ASSERT_EQ(drv.completions.size(), 1u);
    EXPECT_EQ(drv.completions.front().data, 42u);
    EXPECT_EQ(fu.commits, commits + 1);
    if (forward) {
      EXPECT_GT(fu.evals, evals);
    } else {
      EXPECT_EQ(fu.evals, evals);
    }
  }
}

// ---------------------------------------------------------------------------
// FSM skeleton (paper Fig. 6).

TEST(FsmFu, SequencesIdleExecuteOutput) {
  sim::Simulator sim;
  FsmFu fu(sim, "fu", adder_core(), /*execute_cycles=*/3);
  FuDriver drv(sim, "drv", fu.ports);
  ConformanceMonitor mon(sim, "mon", fu.ports);
  drv.enqueue(req(1, 2));
  EXPECT_EQ(fu.state(), FsmFu::State::kIdle);
  sim.step();  // dispatch accepted
  EXPECT_EQ(fu.state(), FsmFu::State::kExecute);
  sim.step();
  sim.step();
  EXPECT_EQ(fu.state(), FsmFu::State::kExecute);
  sim.step();  // third execute cycle completes
  EXPECT_EQ(fu.state(), FsmFu::State::kOutput);
  sim.step();  // acknowledged
  EXPECT_EQ(fu.state(), FsmFu::State::kIdle);
  ASSERT_EQ(drv.completions().size(), 1u);
  EXPECT_EQ(drv.completions().front().result.data, 3u);
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST(FsmFu, NoOutputOpsSkipOutputState) {
  sim::Simulator sim;
  FsmFu fu(sim, "fu", silent_core(), /*execute_cycles=*/1);
  FuDriver drv(sim, "drv", fu.ports);
  drv.enqueue(req(1, 2));
  drv.enqueue(req(3, 4));
  // Each op: 1 dispatch cycle + 1 execute cycle, never enters Output.
  sim.run_until([&] { return fu.completed() == 2; }, 20);
  EXPECT_LE(sim.cycle(), 6u);
  EXPECT_TRUE(drv.completions().empty());  // nothing ever offered to arbiter
}

TEST(FsmFu, ThroughputMatchesExecuteLatency) {
  sim::Simulator sim;
  FsmFu fu(sim, "fu", adder_core(), /*execute_cycles=*/2);
  FuDriver drv(sim, "drv", fu.ports);
  for (int i = 0; i < 10; ++i) {
    drv.enqueue(req(static_cast<isa::Word>(i), 0));
  }
  sim.run_until([&] { return drv.completions().size() == 10; }, 500);
  // Cycle cost per op: 1 (idle->execute) + 2 (execute) + 1 (output/ack).
  const auto& d = drv.dispatch_cycles();
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_EQ(d[i] - d[i - 1], 4u);
  }
}

// ---------------------------------------------------------------------------
// Pipelined skeleton (§2.3.4 performance-optimised).

TEST(PipelinedFu, OnePerCycleThroughput) {
  sim::Simulator sim;
  PipelinedFu fu(sim, "fu", adder_core(), /*depth=*/4, /*fifo=*/8);
  FuDriver drv(sim, "drv", fu.ports);
  ConformanceMonitor mon(sim, "mon", fu.ports);
  for (int i = 0; i < 50; ++i) {
    drv.enqueue(req(static_cast<isa::Word>(i), 1000));
  }
  const auto cycles = sim.run_until(
      [&] { return drv.completions().size() == 50; }, 500);
  // 50 ops, depth-4 pipeline: ~50 + small drain, not 2x.
  EXPECT_LE(cycles, 60u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(drv.completions()[i].result.data, 1000 + i);
  }
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST(PipelinedFu, InitiationIntervalLimitsIssueRate) {
  sim::Simulator sim;
  PipelinedFu fu(sim, "fu", adder_core(), /*depth=*/4, /*fifo=*/8,
                 /*initiation_interval=*/3);
  FuDriver drv(sim, "drv", fu.ports);
  for (int i = 0; i < 10; ++i) {
    drv.enqueue(req(static_cast<isa::Word>(i), 0));
  }
  sim.run_until([&] { return drv.completions().size() == 10; }, 500);
  const auto& d = drv.dispatch_cycles();
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_GE(d[i] - d[i - 1], 3u);
  }
}

TEST(PipelinedFu, StalledArbiterBackpressuresViaReservation) {
  sim::Simulator sim;
  PipelinedFu fu(sim, "fu", adder_core(), /*depth=*/2, /*fifo=*/4);
  FuDriver drv(sim, "drv", fu.ports, /*ack 1-in-8=*/1, 8, 55);
  ConformanceMonitor mon(sim, "mon", fu.ports);
  for (int i = 0; i < 30; ++i) {
    drv.enqueue(req(static_cast<isa::Word>(i), 7));
  }
  for (int i = 0; i < 2000 && drv.completions().size() < 30; ++i) {
    sim.step();
    // The thesis invariant: FIFO occupancy plus in-flight never exceeds the
    // FIFO capacity, because slots are reserved at dispatch.
    ASSERT_LE(fu.buffered() + fu.in_flight(), 4u);
  }
  ASSERT_EQ(drv.completions().size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(drv.completions()[i].result.data, 7 + i);
  }
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST(PipelinedFu, RejectsUndersizedFifo) {
  sim::Simulator sim;
  EXPECT_THROW(
      PipelinedFu(sim, "fu", adder_core(), /*depth=*/4, /*fifo=*/4),
      SimError);
  EXPECT_THROW(
      PipelinedFu(sim, "fu", adder_core(), /*depth=*/0, /*fifo=*/4),
      SimError);
}

TEST(PipelinedFu, LatencyIsPipelineDepth) {
  sim::Simulator sim;
  PipelinedFu fu(sim, "fu", adder_core(), /*depth=*/5, /*fifo=*/8);
  FuDriver drv(sim, "drv", fu.ports);
  drv.enqueue(req(20, 22));
  sim.run_until([&] { return drv.completions().size() == 1; }, 50);
  const auto dispatched = drv.dispatch_cycles().front();
  const auto completed = drv.completions().front().cycle;
  // depth cycles in the pipe + 1 cycle through the FIFO head.
  EXPECT_EQ(completed - dispatched, 6u);
  EXPECT_EQ(drv.completions().front().result.data, 42u);
}

// ---------------------------------------------------------------------------
// Cross-skeleton property: all three produce identical results for the same
// request sequence, differing only in timing.

TEST(Skeletons, AgreeOnResults) {
  std::vector<std::vector<isa::Word>> outputs;
  for (int variant = 0; variant < 4; ++variant) {
    sim::Simulator sim;
    std::unique_ptr<FunctionalUnit> fu;
    switch (variant) {
      case 0: fu = std::make_unique<MinimalFu>(sim, "m", adder_core()); break;
      case 1:
        fu = std::make_unique<MinimalFu>(sim, "mf", adder_core(), true);
        break;
      case 2:
        fu = std::make_unique<FsmFu>(sim, "f", adder_core(), 2);
        break;
      default:
        fu = std::make_unique<PipelinedFu>(sim, "p", adder_core(), 3, 6);
        break;
    }
    FuDriver drv(sim, "drv", fu->ports, 2, 3, 31);
    Xoshiro256 rng(4242);
    for (int i = 0; i < 40; ++i) {
      drv.enqueue(req(rng.below(1000), rng.below(1000)));
    }
    sim.run_until([&] { return drv.completions().size() == 40; }, 5000);
    std::vector<isa::Word> vals;
    for (const auto& c : drv.completions()) {
      vals.push_back(c.result.data);
    }
    outputs.push_back(std::move(vals));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
  EXPECT_EQ(outputs[0], outputs[3]);
}

// ---------------------------------------------------------------------------
// Stateful cores: every skeleton calls its core exactly once per accepted
// operation, from commit(), under every kernel.

TEST(Skeletons, StatefulCoreRunsOncePerAcceptedOperation) {
  constexpr std::size_t kOps = 60;
  for (const sim::Simulator::Kernel kernel : sim::Simulator::kAllKernels) {
    for (const Skeleton skeleton : {Skeleton::kMinimal, Skeleton::kMinimalFwd,
                                    Skeleton::kFsm, Skeleton::kPipelined}) {
      SCOPED_TRACE(std::string(sim::Simulator::kernel_name(kernel)) +
                   " kernel, skeleton " +
                   std::to_string(static_cast<int>(skeleton)));
      // The core folds every operand into an accumulator and returns it:
      // a second call for one operation would show in both.
      std::uint64_t calls = 0;
      isa::Word acc = 0;
      const StatelessFn core = [&](isa::VarietyCode, isa::Word a, isa::Word,
                                   isa::FlagWord) {
        ++calls;
        acc = acc * 31 + a;
        return StatelessOut{acc, 0, true, false};
      };
      StatelessConfig cfg;
      cfg.skeleton = skeleton;
      cfg.execute_cycles = 3;
      cfg.pipeline_depth = 3;
      cfg.fifo_capacity = 5;
      sim::Simulator sim;
      sim.set_kernel(kernel);
      const std::unique_ptr<FunctionalUnit> fu =
          make_stateless_unit(sim, "fu", core, cfg);
      FuDriver drv(sim, "drv", fu->ports, 2, 3, 17);
      ConformanceMonitor mon(sim, "mon", fu->ports);

      Xoshiro256 rng(99);
      isa::Word oracle = 0;
      std::vector<isa::Word> want;
      for (std::size_t i = 0; i < kOps; ++i) {
        const isa::Word a = rng.below(1 << 20);
        oracle = oracle * 31 + a;
        want.push_back(oracle);
        drv.enqueue(req(a, 0));
      }
      sim.run_until([&] { return drv.completions().size() == kOps; }, 5000);
      ASSERT_EQ(drv.completions().size(), kOps);
      EXPECT_EQ(calls, kOps);
      EXPECT_EQ(acc, oracle);
      for (std::size_t i = 0; i < kOps; ++i) {
        EXPECT_EQ(drv.completions()[i].result.data, want[i]) << "op " << i;
      }
      mon.check_drained();
      EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
    }
  }
}

TEST(Skeletons, StatefulUnitWaitingOnTheArbiterCostsNoCommits) {
  // A result the arbiter holds back changes nothing in the unit, so the
  // event kernel leaves it asleep until the acknowledgement arrives.
  const auto wait_then_retire = [](auto& unit, FuRequest request) {
    HandDriver drv(unit.simulator(), unit.ports);
    drv.queue.push_back(request);
    sim::Simulator& sim = unit.simulator();
    sim.step();  // accept
    sim.step();  // the result is pending
    ASSERT_TRUE(unit.ports.data_ready.peek());
    const std::uint64_t commits = unit.commits;
    for (int i = 0; i < 20; ++i) {
      sim.step();
    }
    EXPECT_EQ(unit.commits, commits);
    drv.ack = true;
    sim.step();
    EXPECT_EQ(unit.commits, commits + 1);
    EXPECT_EQ(drv.completions.size(), 1u);
    EXPECT_EQ(unit.completed(), 1u);
  };
  sim::Simulator sim;
  {
    SCOPED_TRACE("scratchpad");
    Counted<ScratchpadUnit> sp(sim, "sp", 16);
    FuRequest r = req(3, 77);
    r.variety = ScratchpadUnit::kWrite;
    wait_then_retire(sp, r);
    EXPECT_EQ(sp.peek(3), 77u);
  }
  {
    SCOPED_TRACE("prng");
    Counted<PrngUnit> prng(sim, "prng");
    FuRequest r = req(0, 0);
    r.variety = PrngUnit::kNext;
    const std::uint64_t before = prng.state();
    wait_then_retire(prng, r);
    EXPECT_NE(prng.state(), before);
  }
  {
    SCOPED_TRACE("cam");
    Counted<CamUnit> cam(sim, "cam", 4);
    FuRequest r = req(5, 50);
    r.variety = CamUnit::kInsert;
    wait_then_retire(cam, r);
  }
}

}  // namespace
}  // namespace fpgafu::fu

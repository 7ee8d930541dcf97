// Cycle timing of the paper's FU configurations under both settle kernels.
//
// Each skeleton runs one request stream against the stalled-ack FuDriver
// (the arbiter acknowledges two cycles in three); dispatch cycles,
// completion cycles and completion records must be identical under the
// brute-force reference kernel and the event kernel, which lets the FSM and
// the pipeline sleep on timed wakes.  A second group counts the event
// kernel's commits while a long operation is in flight: a sleeping unit
// costs a small constant, not one commit per cycle.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fu/fsm_fu.hpp"
#include "fu/gemm_unit.hpp"
#include "fu/minimal_fu.hpp"
#include "fu/pipelined_fu.hpp"
#include "fu/stateless_units.hpp"
#include "isa/muldiv.hpp"
#include "support/fu_harness.hpp"
#include "util/rng.hpp"

namespace fpgafu::fu {
namespace {

using fpgafu::testing::FuDriver;
using Kernel = sim::Simulator::Kernel;
using MakeUnit =
    std::function<std::unique_ptr<FunctionalUnit>(sim::Simulator&)>;

/// The 32-bit core of the stock unit serving `code`.
StatelessFn core_of(isa::FunctionCode code) {
  return stock_core(*isa::stock_unit(code), 32);
}

/// What a stream of requests did, cycle by cycle.
struct Timeline {
  std::vector<std::uint64_t> dispatches;
  std::vector<std::uint64_t> completion_cycles;
  std::vector<FuResult> results;
};

Timeline run(Kernel kernel, const MakeUnit& make,
             const std::vector<FuRequest>& requests) {
  sim::Simulator sim;
  sim.set_kernel(kernel);
  const std::unique_ptr<FunctionalUnit> unit = make(sim);
  FuDriver drv(sim, "drv", unit->ports, /*ack 2-in-3=*/2, 3, 99);
  for (const FuRequest& r : requests) {
    drv.enqueue(r);
  }
  sim.run_until([&] { return unit->completed() == requests.size(); },
                100000);
  Timeline t;
  t.dispatches = drv.dispatch_cycles();
  for (const FuDriver::Completion& c : drv.completions()) {
    t.completion_cycles.push_back(c.cycle);
    t.results.push_back(c.result);
  }
  return t;
}

/// Runs `requests` under both kernels, expects identical timelines and
/// returns the event kernel's.
Timeline expect_kernels_agree(const MakeUnit& make,
                              const std::vector<FuRequest>& requests) {
  const Timeline brute = run(Kernel::kBruteForce, make, requests);
  const Timeline event = run(Kernel::kEvent, make, requests);
  EXPECT_EQ(event.dispatches, brute.dispatches);
  EXPECT_EQ(event.completion_cycles, brute.completion_cycles);
  EXPECT_EQ(event.results, brute.results);
  EXPECT_EQ(brute.dispatches.size(), requests.size());
  return event;
}

/// Multiply/divide requests with every third one a DIVMOD (two records on
/// an FSM built with the second-record predicate).
std::vector<FuRequest> muldiv_requests() {
  Xoshiro256 rng(2024);
  std::vector<FuRequest> out;
  for (int i = 0; i < 24; ++i) {
    FuRequest r;
    const isa::muldiv::Op op =
        i % 3 == 0 ? isa::muldiv::Op::kDivMod
                   : isa::muldiv::kAllOps[rng.below(7)];
    r.variety = isa::muldiv::variety(op);
    r.operand1 = rng.below(1u << 20);
    r.operand2 = rng.below(1000);  // zero now and then: the error path
    r.dst_reg = static_cast<isa::RegNum>(1 + i % 7);
    r.dst_reg2 = static_cast<isa::RegNum>(9 + i % 5);
    r.dst_flag_reg = static_cast<isa::RegNum>(i % 4);
    out.push_back(r);
  }
  return out;
}

TEST(SkeletonTiming, MinimalAgreesAcrossKernels) {
  for (const bool forward : {false, true}) {
    SCOPED_TRACE(forward ? "ack forwarding" : "no forwarding");
    expect_kernels_agree(
        [&](sim::Simulator& sim) {
          return std::make_unique<MinimalFu>(
              sim, "min", core_of(isa::fc::kMulDiv), forward);
        },
        muldiv_requests());
  }
}

TEST(SkeletonTiming, FsmAgreesAcrossKernelsWithAndWithoutSecondRecord) {
  const std::vector<FuRequest> requests = muldiv_requests();
  for (std::uint32_t k = 1; k <= 4; ++k) {
    for (const bool second : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   (second ? " with" : " without") + " second record");
      const Timeline t = expect_kernels_agree(
          [&](sim::Simulator& sim) {
            return std::make_unique<FsmFu>(
                sim, "fsm", core_of(isa::fc::kMulDiv), k,
                second ? FsmFu::SecondPredicate(isa::muldiv::writes_second)
                       : nullptr);
          },
          requests);
      // Every DIVMOD adds one record when the predicate is given.
      EXPECT_EQ(t.results.size(),
                requests.size() + (second ? requests.size() / 3 : 0));
    }
  }
}

TEST(SkeletonTiming, PipelineAgreesAcrossKernelsAndHonoursTheInterval) {
  // At II = 7 the unit has retired and drained its last operation, and
  // gone to sleep, well before it may issue again: only the next-issue
  // wake raises `idle` in time.
  for (const std::uint32_t interval : {1u, 3u, 7u}) {
    SCOPED_TRACE("II=" + std::to_string(interval));
    const Timeline t = expect_kernels_agree(
        [&](sim::Simulator& sim) {
          return std::make_unique<PipelinedFu>(
              sim, "pipe", core_of(isa::fc::kMulDiv), /*depth=*/2,
              /*fifo=*/8, interval);
        },
        muldiv_requests());
    for (std::size_t i = 1; i < t.dispatches.size(); ++i) {
      if (interval > 1) {
        EXPECT_EQ(t.dispatches[i] - t.dispatches[i - 1], interval)
            << "dispatch " << i;
      } else {
        EXPECT_GE(t.dispatches[i] - t.dispatches[i - 1], 1u);
      }
    }
  }
}

FuRequest gemm_op(isa::VarietyCode v, isa::Word addr, isa::Word data = 0) {
  FuRequest r;
  r.variety = v;
  r.operand1 = addr;
  r.operand2 = data;
  r.dst_reg = 1;
  return r;
}

TEST(SkeletonTiming, GemmLoadsQueuedBehindAStartAgreeAcrossKernels) {
  std::vector<FuRequest> requests;
  requests.push_back(
      gemm_op(GemmUnit::kConfig, GemmUnit::config_word(3, 3, 3)));
  for (isa::Word i = 0; i < 9; ++i) {
    requests.push_back(gemm_op(GemmUnit::kLoadA, i, i + 1));
    requests.push_back(gemm_op(GemmUnit::kLoadB, i, 2 * i + 1));
  }
  requests.push_back(gemm_op(GemmUnit::kStart, 0));
  // Loads behind the sweep: due long before it, retired with it.
  for (isa::Word i = 0; i < 9; ++i) {
    requests.push_back(gemm_op(GemmUnit::kLoadA, i, 100 + i));
  }
  requests.push_back(gemm_op(GemmUnit::kStart, 0));
  for (isa::Word i = 0; i < 9; ++i) {
    requests.push_back(gemm_op(GemmUnit::kReadC, i));
  }
  const Timeline t = expect_kernels_agree(
      [](sim::Simulator& sim) {
        return std::make_unique<GemmUnit>(sim, "gemm", 3, 3, 3,
                                          /*depth=*/4, /*fifo=*/8);
      },
      requests);
  // In order: the loads queued behind the first sweep complete after it.
  const std::size_t start = 1 + 18;
  for (std::size_t i = start + 1; i < start + 10; ++i) {
    EXPECT_GT(t.completion_cycles[i], t.completion_cycles[start]);
  }
  EXPECT_EQ(t.results[start].data, 27u);  // MACs of the first sweep
}

/// A testbench driver that sleeps: it dispatches queued requests while the
/// unit is idle, acknowledges every result at once, and reports only its
/// own changes — so the event kernel's commit count measures the unit.
class SleepingDriver : public sim::Component {
 public:
  SleepingDriver(sim::Simulator& sim, FuPorts& ports)
      : Component(sim, "sleeping_drv"), ports_(&ports) {}

  void enqueue(const FuRequest& req) {
    queue_.push_back(req);
    wake();
  }

  std::vector<std::uint64_t> dispatches;
  std::vector<std::uint64_t> completions;

  void eval() override {
    const bool go = !queue_.empty() && ports_->idle.get();
    ports_->dispatch.set(go);
    if (go) {
      ports_->request.set(queue_.front());
    }
    ports_->data_acknowledge.set(ports_->data_ready.get());
  }

  void commit() override {
    if (ports_->dispatch.get()) {
      queue_.pop_front();
      dispatches.push_back(simulator().cycle());
      mark_active();
    }
    if (ports_->data_acknowledge.get()) {
      completions.push_back(simulator().cycle());
      mark_active();
    }
  }

 private:
  FuPorts* ports_;
  std::deque<FuRequest> queue_;
};

/// Commits the event kernel performs between one request's dispatch and
/// its completion, and the cycles in between.
struct InFlightCost {
  std::uint64_t commits = 0;
  std::uint64_t cycles = 0;
};

InFlightCost cost_of_one(sim::Simulator& sim, FunctionalUnit& unit,
                         const FuRequest& req) {
  SleepingDriver drv(sim, unit.ports);
  sim.run(4);  // settle the power-on wake
  drv.enqueue(req);
  sim.run_until([&] { return !drv.dispatches.empty(); }, 100);
  const std::uint64_t commits = sim.commits_performed();
  sim.run_until([&] { return !drv.completions.empty(); }, 100000);
  return {sim.commits_performed() - commits,
          drv.completions.front() - drv.dispatches.front()};
}

TEST(SkeletonSleep, GemmSweepCostsAConstantNumberOfCommits) {
  sim::Simulator sim;
  sim.set_kernel(Kernel::kEvent);
  GemmUnit gemm(sim, "gemm", 8, 8, 8, /*depth=*/4, /*fifo=*/8);
  const InFlightCost c = cost_of_one(sim, gemm, gemm_op(GemmUnit::kStart, 0));
  EXPECT_EQ(c.cycles, 4u + 8 * 8 * 8 + 1);
  EXPECT_LE(c.commits, 8u) << "over " << c.cycles << " cycles";
}

TEST(SkeletonSleep, DeepPipelineCostsAConstantNumberOfCommits) {
  sim::Simulator sim;
  sim.set_kernel(Kernel::kEvent);
  PipelinedFu pipe(sim, "pipe", core_of(isa::fc::kArith), /*depth=*/16,
                   /*fifo=*/17);
  FuRequest req;
  req.variety = 0;
  const InFlightCost c = cost_of_one(sim, pipe, req);
  EXPECT_EQ(c.cycles, 16u + 1);
  EXPECT_LE(c.commits, 8u) << "over " << c.cycles << " cycles";
}

}  // namespace
}  // namespace fpgafu::fu

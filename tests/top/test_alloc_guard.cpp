// Allocation guard: a steady-state simulated cycle must not touch the heap.
//
// This binary replaces the global operator new with a counting version and
// asserts that no allocation happens inside Simulator::step() once a System
// is warm, under every settle kernel, on two shapes:
//
//  * the E13 wide-FU fabric (32 multi-cycle FSM arithmetic units plus a
//    256-cell chi-sort engine) running its sparse round-robin ADD program —
//    the per-slot paths of the dispatcher and the write arbiter;
//  * a tiny PUT/ADD/GET program streamed through a Coprocessor's driver —
//    the link, message buffer, serialiser and RTM pipeline on short jobs.
//
// Only step() is counted: the host side (program building, the driver's
// queues, response collection) may allocate per job.  The replacement is
// process-wide, so this test lives in its own binary; it is not built in the
// sanitizer CI legs, whose runtimes supply their own operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "fu/stateless_units.hpp"
#include "host/coprocessor.hpp"
#include "isa/arith.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"
#include "xsort/types.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t n = size == 0 ? 1 : size;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fpgafu {
namespace {

constexpr int kWideUnits = 32;
constexpr std::uint64_t kMinCountedSteps = 1000;

/// Steps `sim` with the allocation counter armed; returns the allocations
/// seen inside step().
std::uint64_t counted_step(sim::Simulator& sim) {
  const std::uint64_t before = g_allocations.load();
  g_counting.store(true);
  sim.step();
  g_counting.store(false);
  return g_allocations.load() - before;
}

/// Coprocessor::call unrolled into its Driver and Simulator calls, so only
/// the step() calls are counted.  Returns (responses, allocations in step,
/// steps taken).
struct CountedCall {
  std::vector<msg::Response> responses;
  std::uint64_t allocations = 0;
  std::uint64_t steps = 0;
};

CountedCall counted_call(top::System& sys, host::Coprocessor& copro,
                         const isa::Program& program) {
  host::Driver& drv = copro.driver();
  sim::Simulator& sim = sys.simulator();
  CountedCall out;
  drv.enqueue(program);
  for (;;) {
    drv.service();
    while (auto r = drv.poll()) {
      out.responses.push_back(*r);
    }
    if (drv.tx_drained() &&
        out.responses.size() >= program.expected_responses() && sys.idle()) {
      return out;
    }
    out.allocations += counted_step(sim);
    ++out.steps;
  }
}

top::SystemConfig wide_config() {
  top::SystemConfig cfg;
  cfg.with_arithmetic = false;
  cfg.with_logic = false;
  cfg.with_shift = false;
  cfg.with_muldiv = false;
  cfg.with_float = false;
  cfg.with_trig = false;
  cfg.with_xsort = true;
  cfg.xsort.cells = 256;
  return cfg;
}

/// The E13 program: `sweeps` rounds of one ADD per unit plus a chi-sort
/// COUNT, then a SYNC.
isa::Program wide_program(int sweeps) {
  isa::Program p;
  p.emit_put(1, 11);
  p.emit_put(2, 22);
  isa::Instruction reset;
  reset.function = isa::fc::kXsort;
  reset.variety = static_cast<isa::VarietyCode>(xsort::XsortOp::kReset);
  reset.src1 = 1;
  reset.dst1 = 30;
  reset.dst_flag = 7;
  p.emit(reset);
  int n = 0;
  for (int s = 0; s < sweeps; ++s) {
    for (int u = 0; u < kWideUnits; ++u) {
      isa::Instruction add;
      add.function = static_cast<isa::FunctionCode>(isa::fc::kUserBase + u);
      add.variety = isa::arith::variety(isa::arith::Op::kAdd);
      add.dst1 = static_cast<isa::RegNum>(3 + n % 24);
      add.dst_flag = static_cast<isa::RegNum>(n % 4);
      add.src1 = 1;
      add.src2 = 2;
      p.emit(add);
      ++n;
    }
    isa::Instruction count;
    count.function = isa::fc::kXsort;
    count.variety = static_cast<isa::VarietyCode>(xsort::XsortOp::kCount);
    count.src1 = 1;
    count.dst1 = 31;
    count.dst_flag = 5;
    p.emit(count);
  }
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  p.emit(sync);
  p.emit_get_vec(3, 24);
  return p;
}

/// Every settle kernel, each single-threaded (parallel levelized lanes
/// defer writes through std::function and are out of scope).
class AllocGuard : public ::testing::TestWithParam<sim::Simulator::Kernel> {};

TEST_P(AllocGuard, WideFuFabricStepsWithoutAllocating) {
  top::System sys(wide_config());
  sys.simulator().set_kernel(GetParam());
  std::vector<std::unique_ptr<fu::FunctionalUnit>> units;
  fu::StatelessConfig ucfg;
  ucfg.width = 32;
  ucfg.skeleton = fu::Skeleton::kFsm;
  ucfg.execute_cycles = 4;
  for (int i = 0; i < kWideUnits; ++i) {
    units.push_back(fu::make_arithmetic_unit(sys.simulator(), ucfg,
                                             "arith" + std::to_string(i)));
    sys.attach(static_cast<isa::FunctionCode>(isa::fc::kUserBase + i),
               *units.back());
  }
  host::Coprocessor copro(sys);
  const isa::Program program = wide_program(16);

  // Warm-up: sensitivity lists, queues and buffers reach their size.
  const CountedCall warm = counted_call(sys, copro, program);
  ASSERT_EQ(warm.responses.size(), program.expected_responses());

  const CountedCall run = counted_call(sys, copro, program);
  ASSERT_EQ(run.responses.size(), warm.responses.size());
  for (std::size_t i = 0; i < run.responses.size(); ++i) {
    ASSERT_EQ(run.responses[i].payload, warm.responses[i].payload);
  }
  ASSERT_GE(run.steps, kMinCountedSteps);
  EXPECT_EQ(run.allocations, 0u) << "over " << run.steps << " steps";
}

TEST_P(AllocGuard, TinyProgramThroughCoprocessorStepsWithoutAllocating) {
  top::System sys({});
  sys.simulator().set_kernel(GetParam());
  host::Coprocessor copro(sys);
  isa::Program program;
  program.emit_put(1, 5);
  program.emit_put(2, 7);
  isa::Instruction add;
  add.function = isa::fc::kArith;
  add.variety = isa::arith::variety(isa::arith::Op::kAdd);
  add.src1 = 1;
  add.src2 = 2;
  add.dst1 = 3;
  program.emit(add);
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 3;
  program.emit(get);

  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(counted_call(sys, copro, program).responses.size(),
              program.expected_responses());
  }

  std::uint64_t steps = 0;
  std::uint64_t allocations = 0;
  while (steps < kMinCountedSteps) {
    const CountedCall call = counted_call(sys, copro, program);
    ASSERT_EQ(call.responses.size(), program.expected_responses());
    ASSERT_EQ(call.responses.back().payload, 12u);
    steps += call.steps;
    allocations += call.allocations;
  }
  EXPECT_EQ(allocations, 0u) << "over " << steps << " steps";
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, AllocGuard, ::testing::ValuesIn(sim::Simulator::kAllKernels),
    [](const ::testing::TestParamInfo<sim::Simulator::Kernel>& pinfo) {
      return std::string(sim::Simulator::kernel_name(pinfo.param));
    });

}  // namespace
}  // namespace fpgafu

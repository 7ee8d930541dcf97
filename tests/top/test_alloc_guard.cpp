// Allocation guard: a steady-state simulated cycle must not touch the heap.
//
// This binary replaces the global operator new with a counting version and
// asserts that no allocation happens inside Simulator::step() once a System
// is warm, under every settle kernel, on five shapes:
//
//  * the E13 wide-FU fabric (32 multi-cycle FSM arithmetic units plus a
//    256-cell chi-sort engine) running its sparse round-robin ADD program —
//    the per-slot paths of the dispatcher and the write arbiter;
//  * a tiny PUT/ADD/GET program streamed through a Coprocessor's driver —
//    the link, message buffer, serialiser and RTM pipeline on short jobs;
//  * timed wakes on every path that has one: FSM units at 1..6 Execute
//    cycles (the two-record multiply/divide unit among them) behind
//    64-cycle burst links that add latency to words in both directions;
//  * a bare 140-component mesh whose wires are read across bitmap words,
//    so every wire's reader bitmap has overflow words;
//  * the pipelined skeleton: stateless units built on it and an attached
//    GemmUnit, streaming panel loads, arithmetic and kStart sweeps — the
//    stage ring and output FIFO of the pipeline core.
//
// On those five only step() is counted.  Further tests count the whole
// host transport path as well — ReliableTransport::submit, service and
// poll_completed through a window of 8 — and allow one allocation per job
// on average: the Completion's response vector handed to the caller.
// Another compares warm inline-farm jobs: one on a session that requires a
// resident algorithm image must allocate no more than one on a plain
// session (the required set is an id bitset, not a copied name list).  The
// last runs a warm inline farm's closed-loop tiny stream and allows two
// allocations per job: the caller's program copy and the response vector.
// The replacement is process-wide, so this test lives in its own binary;
// it is not built in the sanitizer CI legs, whose runtimes supply their
// own operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "fu/gemm_unit.hpp"
#include "fu/stateless_units.hpp"
#include "host/coprocessor.hpp"
#include "host/farm.hpp"
#include "host/reliable_transport.hpp"
#include "isa/arith.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "support/fsm_units.hpp"
#include "support/program_gen.hpp"
#include "support/reader_mesh.hpp"
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

/// Every settle kernel.
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

TEST_P(AllocGuard, TimedWakesStepWithoutAllocating) {
  top::SystemConfig cfg;
  cfg.with_arithmetic = cfg.with_logic = cfg.with_shift = false;
  cfg.with_muldiv = cfg.with_float = cfg.with_trig = false;
  cfg.link_down = msg::kBurstLink.timing;
  cfg.link_up = msg::kBurstLink.timing;
  msg::FaultConfig jitter;
  jitter.up.jitter_max = 5;
  jitter.down.jitter_max = 5;
  cfg.link_faults = jitter;
  top::System sys(cfg);
  sys.simulator().set_kernel(GetParam());
  std::vector<testing::CodedUnit> units =
      testing::make_fsm_units(sys.simulator(), 32, {1, 2, 3, 4, 5, 6});
  for (auto& [code, unit] : units) {
    sys.attach(code, *unit);
  }
  host::Coprocessor copro(sys);
  const isa::Program program =
      testing::random_program(cfg.rtm, 0x7133, {.instructions = 80});

  // Warm-up: timers, sensitivity lists, queues and buffers reach their size.
  const CountedCall warm = counted_call(sys, copro, program);
  ASSERT_EQ(warm.responses.size(), program.expected_responses());

  std::uint64_t steps = 0;
  std::uint64_t allocations = 0;
  while (steps < kMinCountedSteps) {
    const CountedCall call = counted_call(sys, copro, program);
    ASSERT_EQ(call.responses.size(), warm.responses.size());
    steps += call.steps;
    allocations += call.allocations;
  }
  EXPECT_EQ(allocations, 0u) << "over " << steps << " steps";
}

TEST_P(AllocGuard, ReaderBitmapsPastOneWordStepWithoutAllocating) {
  sim::Simulator sim;
  sim.set_kernel(GetParam());
  testing::ReaderMesh mesh(sim, 140);
  sim.run(50);  // warm-up: every reader bit and overflow word exists
  std::uint64_t allocations = 0;
  for (std::uint64_t i = 0; i < kMinCountedSteps; ++i) {
    allocations += counted_step(sim);
  }
  EXPECT_EQ(allocations, 0u) << "over " << kMinCountedSteps << " steps";
}

/// Four rounds of 3×3 panel loads, an ADD on the arithmetic unit per load
/// and a kStart sweep, after clearing the accumulator, then the C block
/// read back: every command the GEMM unit has, interleaved with work for a
/// pipelined stateless unit.
isa::Program gemm_stream_program(isa::FunctionCode gemm) {
  const auto op = [&](isa::VarietyCode v, isa::RegNum src1,
                      isa::RegNum src2, isa::RegNum dst_flag) {
    isa::Instruction inst;
    inst.function = gemm;
    inst.variety = v;
    inst.dst1 = 2;
    inst.src1 = src1;
    inst.src2 = src2;
    inst.dst_flag = dst_flag;
    return inst;
  };
  isa::Program p;
  p.emit_put(1, fu::GemmUnit::config_word(3, 3, 3));
  p.emit(op(fu::GemmUnit::kConfig, 1, 0, 0));
  p.emit(op(fu::GemmUnit::kClearC, 0, 0, 1));
  for (int round = 0; round < 4; ++round) {
    for (isa::Word i = 0; i < 9; ++i) {
      p.emit_put(1, i);
      p.emit_put(3, i + static_cast<isa::Word>(round));
      p.emit(op(fu::GemmUnit::kLoadA, 1, 3, 2));
      p.emit(op(fu::GemmUnit::kLoadB, 1, 3, 3));
      isa::Instruction add;
      add.function = isa::fc::kArith;
      add.variety = isa::arith::variety(isa::arith::Op::kAdd);
      add.src1 = 3;
      add.src2 = 3;
      add.dst1 = static_cast<isa::RegNum>(4 + i % 4);
      add.dst_flag = 4;
      p.emit(add);
    }
    p.emit(op(fu::GemmUnit::kStart, 0, 0, 5));
  }
  for (isa::Word i = 0; i < 9; ++i) {
    p.emit_put(1, i);
    p.emit(op(fu::GemmUnit::kReadC, 1, 0, 6));
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = 2;
    p.emit(get);
  }
  return p;
}

TEST_P(AllocGuard, PipelinedUnitsAndGemmStepWithoutAllocating) {
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;
  cfg.stateless_skeleton = fu::Skeleton::kPipelined;
  top::System sys(cfg);
  sys.simulator().set_kernel(GetParam());
  constexpr isa::FunctionCode kGemm = isa::fc::kUserBase;
  fu::GemmUnit gemm(sys.simulator(), "gemm", 3, 3, 3);
  sys.attach(kGemm, gemm);
  host::Coprocessor copro(sys);
  const isa::Program program = gemm_stream_program(kGemm);

  // Warm-up: sensitivity lists, timers, queues and buffers reach their size.
  const CountedCall warm = counted_call(sys, copro, program);
  ASSERT_EQ(warm.responses.size(), program.expected_responses());

  std::uint64_t steps = 0;
  std::uint64_t allocations = 0;
  while (steps < kMinCountedSteps) {
    const CountedCall call = counted_call(sys, copro, program);
    ASSERT_EQ(call.responses.size(), warm.responses.size());
    for (std::size_t i = 0; i < call.responses.size(); ++i) {
      ASSERT_EQ(call.responses[i].payload, warm.responses[i].payload);
    }
    steps += call.steps;
    allocations += call.allocations;
  }
  EXPECT_EQ(allocations, 0u) << "over " << steps << " steps";
}

/// Register-disjoint PUT/ADD/GET jobs, as a Farm session mix would send.
std::vector<isa::Program> tiny_jobs() {
  std::vector<isa::Program> jobs;
  for (int i = 0; i < 12; ++i) {
    const auto a = static_cast<isa::RegNum>(1 + 2 * i);
    isa::Program p;
    p.emit_put(a, 100 + static_cast<isa::Word>(i));
    isa::Instruction add;
    add.function = isa::fc::kArith;
    add.variety = isa::arith::variety(isa::arith::Op::kAdd);
    add.src1 = a;
    add.src2 = a;
    add.dst1 = static_cast<isa::RegNum>(a + 1);
    p.emit(add);
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = static_cast<isa::RegNum>(a + 1);
    p.emit(get);
    jobs.push_back(std::move(p));
  }
  return jobs;
}

TEST(TransportAllocGuard, TinyJobsThroughTheTransportAllocateOnlyTheirResponses) {
  top::System sys({});
  host::Coprocessor copro(sys);
  host::TransportConfig tcfg;
  tcfg.window = 8;
  host::ReliableTransport transport(copro, tcfg);
  const std::vector<isa::Program> jobs = tiny_jobs();

  std::uint64_t wrong = 0;
  auto run_jobs = [&](std::size_t n) {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    copro.pump().run_until(
        [&] {
          while (submitted < n && !transport.window_full()) {
            transport.submit(jobs[submitted++ % jobs.size()]);
          }
          transport.service();
          while (auto c = transport.poll_completed()) {
            ++completed;
            if (c->responses.size() != 1 ||
                c->responses[0].payload % 2 != 0) {
              ++wrong;
            }
          }
          if (completed == n) {
            return host::Wake::done();
          }
          return submitted < n && !transport.window_full()
                     ? host::Wake::at(sys.simulator().cycle() + 1)
                     : transport.next_wake();
        },
        host::Deadline(sys.simulator(), 100'000'000), "tiny transport jobs");
  };

  run_jobs(1000);  // warm-up: flights, queues and links reach their size
  constexpr std::size_t kJobs = 10000;
  const std::uint64_t before = g_allocations.load();
  g_counting.store(true);
  run_jobs(kJobs);
  g_counting.store(false);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(wrong, 0u);
  EXPECT_LE(allocations, kJobs) << "over " << kJobs << " jobs";
}

/// Allocations made by `jobs` runs of `program` on `session` of an inline
/// farm (each submit_async runs the job to completion before it returns).
std::uint64_t farm_job_allocations(host::Farm& farm,
                                   host::Farm::SessionId session,
                                   const isa::Program& program,
                                   std::size_t jobs) {
  std::size_t ok = 0;
  const auto on_done = [&ok](std::vector<msg::Response> rs,
                             std::exception_ptr err) {
    if (!err && rs.size() == 1) {
      ++ok;
    }
  };
  const std::uint64_t before = g_allocations.load();
  g_counting.store(true);
  for (std::size_t i = 0; i < jobs; ++i) {
    farm.submit_async(session, program, on_done);
  }
  g_counting.store(false);
  EXPECT_EQ(ok, jobs);
  return g_allocations.load() - before;
}

TEST(FarmAllocGuard, ResidentRequiredImageCostsNoAllocationPerJob) {
  // Two identical inline farms with one managed image (the logic unit);
  // the program only needs the attached arithmetic unit, so the jobs
  // differ only in the session they run on.
  host::FarmConfig fc;
  fc.shards = 0;
  fc.system.with_logic = false;
  host::AlgorithmImage logic;
  logic.name = "logic";
  logic.codes = {isa::fc::kLogic};
  logic.load_cycles = 10;
  logic.factory = [](sim::Simulator& sim, isa::FunctionCode) {
    return fu::make_stock_unit(sim, isa::fc::kLogic, fu::StatelessConfig{});
  };
  fc.fu_images = {logic};
  fc.fu_slots = 1;
  host::Farm plain_farm(fc);
  host::Farm managed_farm(fc);
  const host::Farm::SessionId plain = plain_farm.create_session();
  const host::Farm::SessionId managed = managed_farm.create_session({"logic"});
  const isa::Program program = tiny_jobs().front();

  // Warm-up: the image loads, and queues, rings and maps reach their size.
  constexpr std::size_t kWarm = 64;
  farm_job_allocations(plain_farm, plain, program, kWarm);
  farm_job_allocations(managed_farm, managed, program, kWarm);
  constexpr std::size_t kJobs = 256;
  const std::uint64_t plain_allocs =
      farm_job_allocations(plain_farm, plain, program, kJobs);
  const std::uint64_t managed_allocs =
      farm_job_allocations(managed_farm, managed, program, kJobs);
  EXPECT_LE(managed_allocs, plain_allocs) << "over " << kJobs << " jobs";
  EXPECT_EQ(managed_farm.counters().get("algod.loads"), 1u);
}

/// The tiny_stream shape on an inline farm: twelve register-disjoint
/// sessions at window 8, a closed loop that keeps up to 24 jobs unresolved
/// and submits from completion callbacks.  Counts every allocation between
/// the first submit and the last completion.
struct ClosedLoop {
  host::Farm& farm;
  std::vector<isa::Program> jobs = tiny_jobs();
  std::vector<host::Farm::SessionId> sessions;
  std::size_t target = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t wrong = 0;

  explicit ClosedLoop(host::Farm& f) : farm(f) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      sessions.push_back(farm.create_session());
    }
  }

  void submit_next() {
    const std::size_t i = submitted++ % jobs.size();
    farm.submit_async(sessions[i], jobs[i],
                      [this, i](std::vector<msg::Response> rs,
                                std::exception_ptr err) {
                        ++completed;
                        if (err || rs.size() != 1 ||
                            rs[0].payload != 2 * (100 + i)) {
                          ++wrong;
                        }
                        while (submitted < target &&
                               submitted - completed < 24) {
                          submit_next();
                        }
                      });
  }

  /// Run `n` more jobs; returns the allocations they made.
  std::uint64_t run(std::size_t n) {
    target += n;
    const std::uint64_t before = g_allocations.load();
    g_counting.store(true);
    submit_next();  // inline: returns once the loop has drained
    g_counting.store(false);
    return g_allocations.load() - before;
  }
};

TEST(FarmAllocGuard, WarmTinyStreamAllocatesAtMostTwoPerJob) {
  host::FarmConfig fc;
  fc.shards = 0;
  fc.transport.window = 8;
  host::Farm farm(fc);
  ClosedLoop loop(farm);
  loop.run(2048);  // warm-up: queues, window, rings and counters
  constexpr std::size_t kJobs = 4096;
  const std::uint64_t allocations = loop.run(kJobs);
  EXPECT_EQ(loop.completed, 2048 + kJobs);
  EXPECT_EQ(loop.wrong, 0u);
  EXPECT_LE(allocations, 2 * kJobs) << "over " << kJobs << " jobs";
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, AllocGuard, ::testing::ValuesIn(sim::Simulator::kAllKernels),
    [](const ::testing::TestParamInfo<sim::Simulator::Kernel>& pinfo) {
      return std::string(sim::Simulator::kernel_name(pinfo.param));
    });

}  // namespace
}  // namespace fpgafu

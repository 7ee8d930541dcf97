// Experiment E4 (DESIGN.md §5): RTM pipeline behaviour.
//
// Quantifies §III of the paper: pipeline throughput under different
// functional-unit mixes, hazard-induced stalls, out-of-order completion
// with in-order results, and the write-arbiter grant-policy ablation.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "host/coprocessor.hpp"
#include "isa/arith.hpp"
#include "isa/logic.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/shift.hpp"
#include "top/system.hpp"
#include "util/table.hpp"

namespace {

using namespace fpgafu;

/// Burst of `ops` independent ADDs cycling over 8 destination registers,
/// ending with a SYNC.
isa::Program add_burst(int ops) {
  isa::Program p;
  p.emit_put(1, 11);
  p.emit_put(2, 22);
  for (int i = 0; i < ops; ++i) {
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
  return p;
}

std::uint64_t run_burst(const top::SystemConfig& cfg, const isa::Program& p) {
  top::System sys(cfg);
  host::Coprocessor copro(sys);
  const auto start = sys.simulator().cycle();
  copro.call(p);
  return sys.simulator().cycle() - start;
}

void print_throughput_table() {
  bench::section("E4", "RTM pipeline: cycles per instruction for a burst of "
                       "512 independent ADDs (tight link)");
  TextTable t({"unit skeleton", "total cycles", "cycles/instr"});
  const int ops = 512;
  for (const auto s : {fu::Skeleton::kMinimal, fu::Skeleton::kMinimalFwd,
                       fu::Skeleton::kFsm, fu::Skeleton::kPipelined}) {
    top::SystemConfig cfg;
    cfg.stateless_skeleton = s;
    const std::uint64_t cycles = run_burst(cfg, add_burst(ops));
    const char* name = s == fu::Skeleton::kMinimal      ? "minimal"
                       : s == fu::Skeleton::kMinimalFwd ? "minimal+fwd"
                       : s == fu::Skeleton::kFsm        ? "fsm"
                                                        : "pipelined";
    t.add_row({name, std::to_string(cycles),
               format_fixed(static_cast<double>(cycles) / ops, 3)});
  }
  t.print(std::cout);
  bench::note("The host stream delivers one instruction per 2 link words;");
  bench::note("with a tight link the decoder sees one instruction every 2");
  bench::note("cycles, so ~2.0 cycles/instr means the pipeline never adds a");
  bench::note("stall on top of the link (the unit is not the bottleneck).");
}

void print_hazard_table() {
  bench::section("E4b", "Hazard behaviour: dependent chains vs independent "
                        "streams (FSM unit, exec latency 1)");
  TextTable t({"workload", "cycles/instr", "lock stalls"});
  for (const bool dependent : {false, true}) {
    top::SystemConfig cfg;
    cfg.stateless_skeleton = fu::Skeleton::kFsm;
    top::System sys(cfg);
    host::Coprocessor copro(sys);
    isa::Program p;
    p.emit_put(1, 1);
    p.emit_put(2, 1);
    const int ops = 256;
    for (int i = 0; i < ops; ++i) {
      isa::Instruction add;
      add.function = isa::fc::kArith;
      add.variety = isa::arith::variety(isa::arith::Op::kAdd);
      // Dependent: r3 += r2 chain (RAW+WAW on r3 and f0 every op).
      // Independent: destinations (data and flag) cycle, so no two
      // in-flight ops share a register.
      add.dst1 = dependent ? 3 : static_cast<isa::RegNum>(3 + (i % 8));
      add.dst_flag = dependent ? 0 : static_cast<isa::RegNum>(i % 4);
      add.src1 = dependent ? 3 : 1;
      add.src2 = 2;
      p.emit(add);
    }
    isa::Instruction sync;
    sync.function = isa::fc::kRtm;
    sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
    p.emit(sync);
    copro.call(p);
    t.add_row({dependent ? "dependent chain r3+=r2" : "independent dsts",
               format_fixed(static_cast<double>(sys.simulator().cycle()) / ops,
                            3),
               std::to_string(sys.rtm().counters().get("stall.lock"))});
  }
  t.print(std::cout);
}

void print_arbiter_ablation() {
  bench::section("E4c", "Write-arbiter grant policy ablation (DESIGN.md §6): "
                        "three units engineered to complete simultaneously");
  TextTable t({"policy", "total cycles", "arbiter contention events"});
  for (const bool rr : {false, true}) {
    top::SystemConfig cfg;
    cfg.with_arithmetic = false;
    cfg.with_logic = false;
    cfg.with_shift = false;
    cfg.rtm.round_robin_arbiter = rr;
    top::System sys(cfg);
    // Pipelined units keep accepting while ops are in flight; depths chosen
    // so that ops dispatched 2 cycles apart (the link rate) drop into their
    // output FIFOs on the same cycle: 6, 4, 2.
    fu::StatelessConfig c6{.width = 32, .skeleton = fu::Skeleton::kPipelined,
                           .pipeline_depth = 6, .fifo_capacity = 12};
    fu::StatelessConfig c4{.width = 32, .skeleton = fu::Skeleton::kPipelined,
                           .pipeline_depth = 4, .fifo_capacity = 12};
    fu::StatelessConfig c2{.width = 32, .skeleton = fu::Skeleton::kPipelined,
                           .pipeline_depth = 2, .fifo_capacity = 12};
    auto u0 = fu::make_arithmetic_unit(sys.simulator(), c6, "arith_d6");
    auto u1 =
        fu::make_stock_unit(sys.simulator(), isa::fc::kLogic, c4, "logic_d4");
    auto u2 =
        fu::make_stock_unit(sys.simulator(), isa::fc::kShift, c2, "shift_d2");
    sys.attach(isa::fc::kArith, *u0);
    sys.attach(isa::fc::kLogic, *u1);
    sys.attach(isa::fc::kShift, *u2);
    host::Coprocessor copro(sys);
    isa::Program p;
    p.emit_put(1, 3);
    p.emit_put(2, 5);
    for (int i = 0; i < 100; ++i) {
      for (int u = 0; u < 3; ++u) {
        isa::Instruction inst;
        inst.function = u == 0   ? isa::fc::kArith
                        : u == 1 ? isa::fc::kLogic
                                 : isa::fc::kShift;
        inst.variety = u == 0 ? isa::arith::variety(isa::arith::Op::kAdd)
                       : u == 1
                           ? isa::logic::variety(isa::logic::Op::kXor)
                           : isa::shift::variety(isa::shift::Op::kRol);
        inst.dst1 = static_cast<isa::RegNum>(4 + ((3 * i + u) % 12));
        inst.dst_flag = static_cast<isa::RegNum>((3 * i + u) % 4);
        inst.src1 = 1;
        inst.src2 = 2;
        p.emit(inst);
      }
    }
    isa::Instruction sync;
    sync.function = isa::fc::kRtm;
    sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
    p.emit(sync);
    copro.call(p);
    t.add_row({rr ? "round robin" : "fixed priority",
               std::to_string(sys.simulator().cycle()),
               std::to_string(sys.rtm().counters().get("arbiter.contention"))});
  }
  t.print(std::cout);
  bench::note("Contention events count unit-cycles spent waiting for the");
  bench::note("single write port while another unit was granted.");
}

void print_ooo_evidence() {
  bench::section("E4d", "Out-of-order completion, in-order results "
                        "(paper §II)");
  top::SystemConfig cfg;
  cfg.with_arithmetic = false;  // attach custom-latency units instead
  cfg.with_logic = false;
  cfg.with_shift = false;
  top::System sys(cfg);
  fu::StatelessConfig slow{.width = 32,
                           .skeleton = fu::Skeleton::kFsm,
                           .execute_cycles = 32};
  fu::StatelessConfig fast{.width = 32, .skeleton = fu::Skeleton::kMinimal};
  auto slow_u = fu::make_arithmetic_unit(sys.simulator(), slow, "slow_arith");
  auto fast_u = fu::make_stock_unit(sys.simulator(), isa::fc::kLogic, fast,
                                    "fast_logic");
  sys.attach(isa::fc::kArith, *slow_u);
  sys.attach(isa::fc::kLogic, *fast_u);
  host::Coprocessor copro(sys);
  isa::Program p;
  p.emit_put(1, 9);
  p.emit_put(2, 5);
  isa::Instruction add;  // slow: 32-cycle execute
  add.function = isa::fc::kArith;
  add.variety = isa::arith::variety(isa::arith::Op::kAdd);
  add.dst1 = 3;
  add.src1 = 1;
  add.src2 = 2;
  p.emit(add);
  isa::Instruction land;  // fast: completes long before the ADD
  land.function = isa::fc::kLogic;
  land.variety = isa::logic::variety(isa::logic::Op::kAnd);
  land.dst1 = 4;
  land.src1 = 1;
  land.src2 = 2;
  p.emit(land);
  for (const isa::RegNum r : {isa::RegNum{3}, isa::RegNum{4}}) {
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = r;
    p.emit(get);
  }
  const auto responses = copro.call(p);
  std::printf("  issue order      : ADD(slow, 32-cycle)  AND(fast)\n");
  std::printf("  completion order : AND first (it does not wait for the ADD)\n");
  std::printf("  response order   : GET r3 = %llu, then GET r4 = %llu — "
              "issue order preserved\n",
              static_cast<unsigned long long>(responses[0].payload),
              static_cast<unsigned long long>(responses[1].payload));
  std::printf("  slow unit completions at drain: %llu; fast unit: %llu\n",
              static_cast<unsigned long long>(slow_u->completed()),
              static_cast<unsigned long long>(fast_u->completed()));
}

void print_settle_stats() {
  bench::section("E4e", "Simulation-kernel evidence (DESIGN.md §6): "
                        "fixed-point settle iterations per cycle");
  TextTable t({"configuration", "max settle iterations/cycle"});
  for (const auto s : {fu::Skeleton::kMinimal, fu::Skeleton::kMinimalFwd,
                       fu::Skeleton::kPipelined}) {
    top::SystemConfig cfg;
    cfg.stateless_skeleton = s;
    top::System sys(cfg);
    host::Coprocessor copro(sys);
    copro.call(add_burst(128));
    const char* name = s == fu::Skeleton::kMinimal      ? "minimal units"
                       : s == fu::Skeleton::kMinimalFwd ? "minimal+fwd units"
                                                        : "pipelined units";
    t.add_row({name, std::to_string(sys.simulator().max_settle_iterations())});
  }
  t.print(std::cout);
  bench::note("The fixed-point evaluator settles in a handful of passes —");
  bench::note("the cost the kernel pays for needing no static schedule of");
  bench::note("the combinational network.  A blow-up here would indicate an");
  bench::note("accidental combinational cycle.");
}

void BM_RtmBurstSimulation(benchmark::State& state) {
  const isa::Program p = add_burst(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    top::SystemConfig cfg;
    cfg.stateless_skeleton = fu::Skeleton::kPipelined;
    benchmark::DoNotOptimize(run_burst(cfg, p));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RtmBurstSimulation)->Arg(64)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  fpgafu::bench::init(&argc, argv);
  print_throughput_table();
  print_hazard_table();
  print_arbiter_ablation();
  print_ooo_evidence();
  print_settle_stats();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

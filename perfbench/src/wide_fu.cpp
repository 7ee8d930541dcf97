// wide_fu: the E13 topology — 32 multi-cycle FSM arithmetic units plus a
// 256-cell chi-sort engine — fed a sparse round-robin ADD stream through
// Coprocessor::call.  Almost every component is idle in any given cycle, so
// per-slot scans in the RTM and idle-component bookkeeping in the settle
// kernel dominate; host work is negligible.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fu/stateless_units.hpp"
#include "host/coprocessor.hpp"
#include "host/reference_model.hpp"
#include "isa/arith.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "util/rng.hpp"
#include "xsort/types.hpp"

namespace perfbench {
namespace {

using namespace fpgafu;

constexpr int kUnits = 32;
constexpr isa::RegNum kXsortOperand = 28;  // fixed, so xsort timing is too
constexpr isa::RegNum kFirstDst = 3;
constexpr int kDstRegs = 24;

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

std::vector<std::unique_ptr<fu::FunctionalUnit>> attach_units(top::System& sys) {
  std::vector<std::unique_ptr<fu::FunctionalUnit>> units;
  fu::StatelessConfig ucfg;
  ucfg.width = 32;
  ucfg.skeleton = fu::Skeleton::kFsm;
  ucfg.execute_cycles = 4;
  for (int i = 0; i < kUnits; ++i) {
    units.push_back(fu::make_arithmetic_unit(sys.simulator(), ucfg,
                                             "arith" + std::to_string(i)));
    sys.attach(static_cast<isa::FunctionCode>(isa::fc::kUserBase + i),
               *units.back());
  }
  return units;
}

/// The fabric and its host stack, in destruction-safe order.
struct Fabric {
  top::System sys{wide_config()};
  std::vector<std::unique_ptr<fu::FunctionalUnit>> units = attach_units(sys);
  host::Coprocessor copro{sys};
};

struct Job {
  isa::Program program;
  std::vector<msg::Response> expected;
};

/// `sweeps` rounds of one ADD per unit plus an xsort COUNT, a SYNC, and a
/// GETV of every ADD destination.  The reference model has no user units
/// and no xsort engine, so its copy of the program sends the ADDs to the
/// stock arithmetic code and replaces each xsort op with an ADD into the
/// register the op writes (never read back): same instruction count, same
/// sequence numbers, same responses.
Job make_job(std::uint64_t seed, int sweeps) {
  Xoshiro256 rng(seed);
  isa::Program hw;
  isa::Program ref;
  const auto both = [&](isa::Instruction inst, isa::FunctionCode ref_code) {
    hw.emit(inst);
    inst.function = ref_code;
    ref.emit(inst);
  };
  for (const isa::RegNum r : {isa::RegNum{1}, isa::RegNum{2}, isa::RegNum{27}}) {
    const isa::Word v = rng.below(1u << 20);
    hw.emit_put(r, v);
    ref.emit_put(r, v);
  }
  hw.emit_put(kXsortOperand, 11);
  ref.emit_put(kXsortOperand, 11);
  const isa::VarietyCode add = isa::arith::variety(isa::arith::Op::kAdd);
  const auto xsort_op = [&](xsort::XsortOp op, isa::RegNum dst,
                            isa::RegNum flag) {
    isa::Instruction inst;
    inst.function = isa::fc::kXsort;
    inst.variety = static_cast<isa::VarietyCode>(op);
    inst.src1 = kXsortOperand;
    inst.dst1 = dst;
    inst.dst_flag = flag;
    hw.emit(inst);
    inst.function = isa::fc::kArith;
    inst.variety = add;
    ref.emit(inst);
  };
  xsort_op(xsort::XsortOp::kReset, 30, 7);
  int n = 0;
  for (int s = 0; s < sweeps; ++s) {
    for (int u = 0; u < kUnits; ++u) {
      isa::Instruction inst;
      inst.function = static_cast<isa::FunctionCode>(isa::fc::kUserBase + u);
      inst.variety = add;
      inst.dst1 = static_cast<isa::RegNum>(kFirstDst + n % kDstRegs);
      inst.dst_flag = static_cast<isa::RegNum>(n % 4);
      inst.src1 = 1;
      inst.src2 = n % 3 == 0 ? 27 : 2;
      both(inst, isa::fc::kArith);
      ++n;
    }
    xsort_op(xsort::XsortOp::kCount, 31, 5);
  }
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  both(sync, isa::fc::kRtm);
  hw.emit_get_vec(kFirstDst, kDstRegs);
  ref.emit_get_vec(kFirstDst, kDstRegs);
  return {hw, host::ReferenceModel(wide_config().rtm).run(ref)};
}

/// Coprocessor::call, unrolled into the Driver and Simulator calls it makes
/// (Coprocessor::submit's flush, then Pump::run_until), with a span around
/// each.  Consumes exactly the cycles Coprocessor::call does.
std::vector<msg::Response> traced_call(Fabric& f, const isa::Program& p,
                                       Span& driver, Span& step) {
  host::Driver& drv = f.copro.driver();
  sim::Simulator& sim = f.sys.simulator();
  driver.time([&] { drv.enqueue(p); });
  for (;;) {
    driver.time([&] { drv.service(); });
    if (drv.tx_drained()) {
      break;
    }
    step.time([&] { sim.step(); });
  }
  std::vector<msg::Response> got;
  for (;;) {
    driver.time([&] { drv.service(); });
    while (auto r = driver.time([&] { return drv.poll(); })) {
      got.push_back(*r);
    }
    if (got.size() >= p.expected_responses() && f.sys.idle()) {
      return got;
    }
    step.time([&] { sim.step(); });
  }
}

}  // namespace

Report run_wide_fu(const Options& opt) {
  const int sweeps = opt.smoke ? 1 : 16;  // 16: the E13 program
  const std::size_t jobs_per_rep = opt.smoke ? 2 : 4;
  const std::size_t setups = opt.smoke ? 2 : 13;

  Report report;
  report.note("jobs_per_rep", std::to_string(jobs_per_rep));
  report.note("sweeps_per_job", std::to_string(sweeps));

  std::vector<Job> jobs;
  for (std::size_t j = 0; j < jobs_per_rep; ++j) {
    jobs.push_back(make_job(mix_seed(opt.seed, j), sweeps));
  }
  EndToEnd e2e;

  // Set-up: build the fabric, then one warm-up rep.  Repeated, each one
  // calibrated, so setup_s is steady; the previous fabric is torn down
  // before the clock starts.  The last fabric is measured.
  std::unique_ptr<Fabric> fabric;
  std::vector<double> construct_ms;
  for (std::size_t i = 0; i < setups; ++i) {
    fabric.reset();
    e2e.calibrate();
    const Clock::time_point t0 = Clock::now();
    fabric = std::make_unique<Fabric>();
    construct_ms.push_back(1e3 * seconds_since(t0));
    for (const Job& job : jobs) {
      fabric->copro.call(job.program);
    }
    e2e.add_setup(seconds_since(t0));
  }
  Fabric& f = *fabric;

  // Untraced: no clock inside a rep.
  std::vector<double> rep_cycles;
  const auto untraced_rep = [&] {
    e2e.calibrate();
    const std::uint64_t c0 = f.sys.simulator().cycle();
    const Clock::time_point t0 = Clock::now();
    for (const Job& job : jobs) {
      const auto got = f.copro.call(job.program);
      ++report.attempted;
      report.failed += same_responses(got, job.expected) ? 0 : 1;
    }
    e2e.add_rep(seconds_since(t0));
    rep_cycles.push_back(static_cast<double>(f.sys.simulator().cycle() - c0));
  };
  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  repeat_for(untraced_seconds, 3, untraced_rep);
  const double cycles = median(rep_cycles);
  for (const double c : rep_cycles) {
    report.expect(c == cycles, "wide_fu: a rep's cycle count differs");
  }
  const double per_job = static_cast<double>(jobs_per_rep);

  if (!opt.trace) {
    e2e.jobs_per_rep = per_job;
    e2e.sim_cycles = cycles;
    add_end_to_end(report, e2e);
    return report;
  }

  // Traced: the same jobs through the unrolled call.
  Span driver;
  Span step;
  std::vector<double> traced_wall;
  std::vector<double> traced_cycles;
  const FabricCounters before = FabricCounters::read(f.sys);
  const Clock::time_point tt = Clock::now();
  repeat_for(opt.seconds / 2, 3, [&] {
    const std::uint64_t c0 = f.sys.simulator().cycle();
    const Clock::time_point t0 = Clock::now();
    for (const Job& job : jobs) {
      const auto got = traced_call(f, job.program, driver, step);
      ++report.attempted;
      report.failed += same_responses(got, job.expected) ? 0 : 1;
    }
    traced_wall.push_back(seconds_since(t0));
    traced_cycles.push_back(static_cast<double>(f.sys.simulator().cycle() - c0));
  });
  const double traced_ns = 1e9 * seconds_since(tt);
  const FabricCounters delta = FabricCounters::read(f.sys) - before;
  for (const double c : traced_cycles) {
    report.expect(c == cycles,
                  "wide_fu: the traced driver loop's cycle count differs from "
                  "Coprocessor::call's");
  }

  Layers l;
  const double traced_jobs = per_job * static_cast<double>(traced_wall.size());
  l.set_fabric(delta, traced_jobs, step, traced_ns);
  l.driver_ns_per_cycle =
      ratio(static_cast<double>(driver.ns), static_cast<double>(delta.cycle));
  l.system_construct_ms = median(construct_ms);
  l.untraced_wall_s = median(e2e.rep_wall_s);
  l.traced_wall_s = median(traced_wall);
  l.untraced_cycles_per_job = cycles / per_job;
  l.traced_cycles_per_job = median(traced_cycles) / per_job;
  add_layers(report, l);
  return report;
}

}  // namespace perfbench

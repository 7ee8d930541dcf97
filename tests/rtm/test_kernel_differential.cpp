// Differential pinning of the settle kernels (sim::Simulator::Kernel): the
// scheduled event kernel must be *bit-identical* to the brute-force reference
// in everything architecturally observable — same responses, same
// register/flag files, same cycle counts, same statistics counters,
// byte-identical waveforms.  It may differ only in how much work it performs
// (fewer eval() calls).
//
// The kernel list lives in ONE place — sim::Simulator::kAllKernels — so a
// new kernel is pinned by this whole file the moment it is added there.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "host/reference_model.hpp"
#include "host/reliable_transport.hpp"
#include "host/xsort_system_engine.hpp"
#include "sim/vcd.hpp"
#include "support/fsm_units.hpp"
#include "support/program_gen.hpp"
#include "support/rtm_harness.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"
#include "xsort/algorithm.hpp"

namespace fpgafu::rtm {
namespace {

using fpgafu::testing::ProgramGenOptions;
using fpgafu::testing::random_program;
using fpgafu::testing::RtmRig;

using sim::Simulator;

const char* kernel_name(Simulator::Kernel k) { return Simulator::kernel_name(k); }

/// Every kernel except the brute-force reference, in Simulator::kAllKernels
/// order.  All matrix tests iterate this, so a new kernel is covered by the
/// entire file as soon as it appears in kAllKernels.
std::vector<Simulator::Kernel> scheduled_kernels() {
  std::vector<Simulator::Kernel> out;
  for (const auto k : Simulator::kAllKernels) {
    if (k != Simulator::Kernel::kBruteForce) {
      out.push_back(k);
    }
  }
  return out;
}

struct KernelRun {
  std::vector<msg::Response> responses;
  std::vector<isa::Word> regs;
  std::vector<isa::FlagWord> flags;
  std::uint64_t cycles = 0;
  std::uint64_t evals = 0;
  std::map<std::string, std::uint64_t> counters;
  std::string vcd;
};

/// Runs `program` on an RtmRig under `kernel`.  With `fsm_cycles` the rig
/// carries FSM units only (testing::make_fsm_units), unit i iterating
/// fsm_cycles[i] clocks; otherwise its default units on `skeleton`.
KernelRun run_under(sim::Simulator::Kernel kernel, const rtm::RtmConfig& cfg,
                    fu::Skeleton skeleton, const isa::Program& program,
                    bool with_vcd = false,
                    const std::array<std::uint32_t, 6>* fsm_cycles = nullptr) {
  RtmRig rig(cfg, skeleton, /*attach_units=*/fsm_cycles == nullptr);
  if (fsm_cycles != nullptr) {
    for (auto& [code, unit] :
         fpgafu::testing::make_fsm_units(rig.sim, cfg.word_width,
                                         *fsm_cycles)) {
      rig.rtm.attach(code, *unit);
      rig.units.push_back(std::move(unit));
    }
  }
  rig.sim.set_kernel(kernel);
  KernelRun out;
  std::ostringstream vcd_os;
  std::unique_ptr<sim::VcdWriter> vcd;
  if (with_vcd) {
    vcd = std::make_unique<sim::VcdWriter>(rig.sim, vcd_os, 20);
    vcd->probe("instr_valid", 1,
               [&] { return rig.instr_ch.valid.get() ? 1u : 0u; });
    vcd->probe("instr_ready", 1,
               [&] { return rig.instr_ch.ready.get() ? 1u : 0u; });
    vcd->probe("resp_valid", 1,
               [&] { return rig.resp_ch.valid.get() ? 1u : 0u; });
    vcd->probe("resp_ready", 1,
               [&] { return rig.resp_ch.ready.get() ? 1u : 0u; });
    vcd->probe("r3", 32, [&] { return rig.rtm.regs().read(3); });
  }
  out.responses = rig.run_program(program);
  for (std::size_t r = 0; r < cfg.data_regs; ++r) {
    out.regs.push_back(rig.rtm.regs().read(static_cast<isa::RegNum>(r)));
  }
  for (std::size_t r = 0; r < cfg.flag_regs; ++r) {
    out.flags.push_back(rig.rtm.flags().read(static_cast<isa::RegNum>(r)));
  }
  out.cycles = rig.sim.cycle();
  out.evals = rig.sim.evals_performed();
  out.counters = rig.rtm.counters().all();
  out.vcd = vcd_os.str();
  return out;
}

void expect_identical(const KernelRun& got, const KernelRun& ref,
                      sim::Simulator::Kernel kernel) {
  const std::string who = kernel_name(kernel);
  ASSERT_EQ(got.responses.size(), ref.responses.size()) << who;
  for (std::size_t i = 0; i < got.responses.size(); ++i) {
    EXPECT_EQ(got.responses[i], ref.responses[i])
        << "response " << i << ": " << who << " "
        << msg::to_string(got.responses[i]) << " vs brute-force "
        << msg::to_string(ref.responses[i]);
  }
  EXPECT_EQ(got.regs, ref.regs) << who;
  EXPECT_EQ(got.flags, ref.flags) << who;
  EXPECT_EQ(got.cycles, ref.cycles) << who;
  EXPECT_EQ(got.counters, ref.counters) << who;
  // Scheduled kernels must not do MORE work than evaluate-everything.
  EXPECT_LE(got.evals, ref.evals) << who;
}

struct KernelDiffCase {
  std::uint64_t seed;
  fu::Skeleton skeleton;
  bool errors;
};

class KernelDifferential : public ::testing::TestWithParam<KernelDiffCase> {};

TEST_P(KernelDifferential, ScheduledKernelsMatchBruteForce) {
  const KernelDiffCase c = GetParam();
  rtm::RtmConfig cfg;
  cfg.data_regs = 16;
  cfg.flag_regs = 4;

  ProgramGenOptions opt;
  opt.instructions = 200;
  opt.include_errors = c.errors;
  const isa::Program program = random_program(cfg, c.seed, opt);

  const KernelRun brute = run_under(Simulator::Kernel::kBruteForce, cfg,
                                    c.skeleton, program);
  for (const auto kernel : scheduled_kernels()) {
    const KernelRun got = run_under(kernel, cfg, c.skeleton, program);
    expect_identical(got, brute, kernel);
    // Skipping idle components must save work on every program, not merely
    // break even with evaluate-everything.
    EXPECT_LT(got.evals, brute.evals) << kernel_name(kernel);
  }
}

std::vector<KernelDiffCase> make_cases() {
  std::vector<KernelDiffCase> cases;
  const fu::Skeleton skeletons[] = {fu::Skeleton::kMinimal,
                                    fu::Skeleton::kMinimalFwd,
                                    fu::Skeleton::kFsm,
                                    fu::Skeleton::kPipelined};
  std::uint64_t seed = 42;
  for (const auto sk : skeletons) {
    for (int i = 0; i < 3; ++i) {
      cases.push_back({seed++, sk, /*errors=*/(i % 2) == 1});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, KernelDifferential, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<KernelDiffCase>& pinfo) {
      const char* sk = "";
      switch (pinfo.param.skeleton) {
        case fu::Skeleton::kMinimal: sk = "Minimal"; break;
        case fu::Skeleton::kMinimalFwd: sk = "MinimalFwd"; break;
        case fu::Skeleton::kFsm: sk = "Fsm"; break;
        case fu::Skeleton::kPipelined: sk = "Pipelined"; break;
      }
      return std::string(sk) + "_seed" + std::to_string(pinfo.param.seed) +
             (pinfo.param.errors ? "_faulty" : "");
    });

// The waveform is the strictest observer: every probed net, every cycle it
// changes.  All kernels must produce byte-identical VCD output.
TEST(KernelDifferential, VcdWaveformsAreByteIdenticalAcrossKernels) {
  rtm::RtmConfig cfg;
  cfg.data_regs = 16;
  cfg.flag_regs = 4;
  const isa::Program program =
      random_program(cfg, 0xace, {.instructions = 120});

  const KernelRun brute =
      run_under(Simulator::Kernel::kBruteForce, cfg,
                fu::Skeleton::kFsm, program, /*with_vcd=*/true);
  for (const auto kernel : scheduled_kernels()) {
    const KernelRun got =
        run_under(kernel, cfg, fu::Skeleton::kFsm, program, /*with_vcd=*/true);
    ASSERT_FALSE(got.vcd.empty());
    EXPECT_EQ(got.vcd, brute.vcd) << kernel_name(kernel);
  }
}

// FSM units sleep through their Execute state on one timed wake.  Every
// length from 1 (completion in the first Execute commit) up to 8 must be
// bit-identical to the brute-force kernel — responses, counters, waveform —
// and equal to the reference model, with the two-record multiply/divide
// unit among them and each unit at its own length.
TEST(KernelDifferential, FsmUnitsAtEveryExecuteLengthMatchBruteForce) {
  rtm::RtmConfig cfg;
  cfg.data_regs = 16;
  cfg.flag_regs = 4;
  for (std::uint32_t n = 1; n <= 8; ++n) {
    SCOPED_TRACE("execute_cycles " + std::to_string(n));
    // Unit i iterates n + i clocks, wrapped into 1..8.
    std::array<std::uint32_t, 6> cycles{};
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      cycles[i] = static_cast<std::uint32_t>((n - 1 + i) % 8 + 1);
    }
    ProgramGenOptions opt;
    opt.instructions = 150;
    opt.include_errors = (n % 2) == 0;
    const isa::Program program = random_program(cfg, 0x71e0 + n, opt);
    const KernelRun brute =
        run_under(Simulator::Kernel::kBruteForce, cfg, fu::Skeleton::kFsm,
                  program, /*with_vcd=*/true, &cycles);
    EXPECT_EQ(brute.responses, host::ReferenceModel(cfg).run(program));
    for (const auto kernel : scheduled_kernels()) {
      const KernelRun got = run_under(kernel, cfg, fu::Skeleton::kFsm,
                                      program, /*with_vcd=*/true, &cycles);
      expect_identical(got, brute, kernel);
      EXPECT_EQ(got.vcd, brute.vcd) << kernel_name(kernel);
      EXPECT_LT(got.evals, brute.evals) << kernel_name(kernel);
    }
  }
}

// The link sleeps until its head word arrives and until its serialisation
// interval ends.  A 64-cycle burst link and a slow serial link, clean and
// with upstream duplicates and extra latency in both directions, must play
// out identically under every kernel: responses, cycles, transport, rtm and
// fault counters, and the waveform of the link's handshakes.
TEST(KernelDifferential, BurstAndFaultyLinksMatchAcrossKernels) {
  struct LinkCase {
    msg::LinkTiming timing;
    bool faulty;
  };
  const LinkCase cases[] = {{msg::kBurstLink.timing, false},
                            {msg::kBurstLink.timing, true},
                            {msg::kSerialLink.timing, true}};
  struct SystemRun {
    std::vector<msg::Response> responses;
    std::uint64_t cycles = 0;
    std::map<std::string, std::uint64_t> transport;
    std::map<std::string, std::uint64_t> rtm;
    std::map<std::string, std::uint64_t> faults;
    std::string vcd;
  };
  for (const LinkCase& c : cases) {
    SCOPED_TRACE("latency " + std::to_string(c.timing.latency) +
                 (c.faulty ? " faulty" : " clean"));
    const auto run_system = [&](Simulator::Kernel kernel) {
      top::SystemConfig cfg;
      cfg.rtm.data_regs = 12;
      cfg.rtm.flag_regs = 4;
      cfg.link_down = c.timing;
      cfg.link_up = c.timing;
      cfg.link_up_capacity = 6;
      cfg.stateless_skeleton = fu::Skeleton::kFsm;
      if (c.faulty) {
        msg::FaultConfig f;
        f.seed = 0xb0057;
        f.up.duplicate_ppm = 60'000;
        f.up.drop_ppm = 20'000;
        f.up.jitter_max = 5;
        f.down.jitter_max = 4;
        cfg.link_faults = f;
      }
      top::System sys(cfg);
      sys.simulator().set_kernel(kernel);
      host::Coprocessor copro(sys);
      host::ReliableTransport transport(copro);
      std::ostringstream vcd_os;
      sim::VcdWriter vcd(sys.simulator(), vcd_os, 20);
      msg::Link& link = sys.link();
      vcd.probe("rx_valid", 1, [&] { return link.rx.valid.peek() ? 1u : 0u; });
      vcd.probe("rx_ready", 1, [&] { return link.rx.ready.peek() ? 1u : 0u; });
      vcd.probe("tx_valid", 1, [&] { return link.tx.valid.peek() ? 1u : 0u; });
      vcd.probe("tx_ready", 1, [&] { return link.tx.ready.peek() ? 1u : 0u; });
      vcd.probe("r1", 32, [&] { return sys.rtm().regs().read(1); });
      const isa::Program program =
          random_program(cfg.rtm, 0x1a7e, {.instructions = 60});
      SystemRun out;
      out.responses = transport.call(program);
      out.cycles = sys.simulator().cycle();
      out.transport = transport.counters().all();
      out.rtm = sys.rtm().counters().all();
      out.faults = sys.link().fault_counters().all();
      out.vcd = vcd_os.str();
      return out;
    };
    const SystemRun brute = run_system(Simulator::Kernel::kBruteForce);
    ASSERT_FALSE(brute.responses.empty());
    if (c.faulty) {
      EXPECT_GT(brute.faults.at("link.up_duplicated"), 0u);
    }
    for (const auto kernel : scheduled_kernels()) {
      const SystemRun got = run_system(kernel);
      EXPECT_EQ(got.responses, brute.responses) << kernel_name(kernel);
      EXPECT_EQ(got.cycles, brute.cycles) << kernel_name(kernel);
      EXPECT_EQ(got.transport, brute.transport) << kernel_name(kernel);
      EXPECT_EQ(got.rtm, brute.rtm) << kernel_name(kernel);
      EXPECT_EQ(got.faults, brute.faults) << kernel_name(kernel);
      EXPECT_EQ(got.vcd, brute.vcd) << kernel_name(kernel);
    }
  }
}

// Full-system differential: host driver, CRC framing, fault-injecting link
// with retries, message buffers, RTM and units.  Responses, cycle counts and
// both the host-side transport.* and device-side rtm counters must agree
// across all kernels.
TEST(KernelDifferential, FullSystemWithFaultyLinkMatchesAcrossKernels) {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 12;
  rcfg.flag_regs = 4;

  struct SystemRun {
    std::vector<msg::Response> responses;
    std::uint64_t cycles = 0;
    std::map<std::string, std::uint64_t> transport;
    std::map<std::string, std::uint64_t> rtm;
  };
  const auto run_system = [&](Simulator::Kernel kernel) {
    top::SystemConfig cfg;
    cfg.rtm = rcfg;
    msg::FaultConfig f;
    f.seed = 0xfee1;
    f.up.drop_ppm = 30'000;
    f.up.corrupt_ppm = 30'000;
    f.up.duplicate_ppm = 30'000;
    f.up.jitter_max = 3;
    f.down.jitter_max = 2;
    cfg.link_faults = f;
    top::System sys(cfg);
    sys.simulator().set_kernel(kernel);
    host::Coprocessor copro(sys);
    host::ReliableTransport transport(copro);
    const isa::Program program = random_program(rcfg, 0xcafe,
                                                {.instructions = 60});
    SystemRun out;
    out.responses = transport.call(program);
    out.cycles = sys.simulator().cycle();
    out.transport = transport.counters().all();
    out.rtm = sys.rtm().counters().all();
    return out;
  };

  const SystemRun brute = run_system(Simulator::Kernel::kBruteForce);
  ASSERT_FALSE(brute.responses.empty());
  for (const auto kernel : scheduled_kernels()) {
    const SystemRun got = run_system(kernel);
    EXPECT_EQ(got.responses, brute.responses) << kernel_name(kernel);
    EXPECT_EQ(got.cycles, brute.cycles) << kernel_name(kernel);
    EXPECT_EQ(got.transport, brute.transport) << kernel_name(kernel);
    EXPECT_EQ(got.rtm, brute.rtm) << kernel_name(kernel);
  }
}

// The χ-sort system is the stateful-unit stress case: a cell array whose
// components mostly sit idle between operations — exactly what the event
// kernel skips.  Results, cycle counts and rtm counters must be identical.
TEST(KernelDifferential, XsortSystemMatchesAcrossKernels) {
  struct XsortRun {
    std::vector<std::uint64_t> sorted;
    std::uint64_t median = 0;
    std::uint64_t cycles = 0;
    std::map<std::string, std::uint64_t> rtm;
  };
  const auto run_xsort = [](Simulator::Kernel kernel) {
    top::SystemConfig cfg;
    cfg.with_xsort = true;
    cfg.xsort.cells = 32;
    cfg.xsort.interval_bits = 16;
    top::System sys(cfg);
    sys.simulator().set_kernel(kernel);
    host::SystemXsortEngine eng(sys);
    xsort::XsortAlgorithm algo(eng);
    Xoshiro256 rng(0xbeef);
    std::vector<std::uint64_t> vals(32);
    for (auto& v : vals) {
      v = rng.below(10'000);
    }
    XsortRun out;
    out.sorted = algo.sort(vals);
    algo.load(vals);
    out.median = algo.select(16);
    out.cycles = sys.simulator().cycle();
    out.rtm = sys.rtm().counters().all();
    return out;
  };

  const XsortRun brute = run_xsort(Simulator::Kernel::kBruteForce);
  for (const auto kernel : scheduled_kernels()) {
    const XsortRun got = run_xsort(kernel);
    EXPECT_EQ(got.sorted, brute.sorted) << kernel_name(kernel);
    EXPECT_EQ(got.median, brute.median) << kernel_name(kernel);
    EXPECT_EQ(got.cycles, brute.cycles) << kernel_name(kernel);
    EXPECT_EQ(got.rtm, brute.rtm) << kernel_name(kernel);
  }
}

// Randomized soak: the event kernel alone against
// the host-side reference model, across more seeds and larger programs than
// the full matrix (one simulation per seed per kernel keeps it cheap).
TEST(KernelDifferential, AggressiveKernelSoakAgainstReferenceModel) {
  rtm::RtmConfig cfg;
  cfg.data_regs = 16;
  cfg.flag_regs = 4;
  for (std::uint64_t seed = 0x900; seed < 0x908; ++seed) {
    ProgramGenOptions opt;
    opt.instructions = 300;
    opt.include_errors = (seed % 2) == 1;
    const isa::Program program = random_program(cfg, seed, opt);
    const auto expected = host::ReferenceModel(cfg).run(program);
    const KernelRun got =
        run_under(Simulator::Kernel::kEvent, cfg, fu::Skeleton::kFsm, program);
    EXPECT_EQ(got.responses, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fpgafu::rtm

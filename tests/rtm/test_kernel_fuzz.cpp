// Randomized-topology differential fuzzer for the settle kernels.
//
// The fixed differential matrix (test_kernel_differential.cpp) pins the
// kernels on hand-picked systems; this fuzzer pins them on *hundreds* of
// generated ones.  A seeded generator elaborates random Systems — random FU
// mixes and skeletons, random register-file and FIFO geometries, faulty or
// clean links, optional χ-sort cell arrays and scratchpad units, mid-run
// attach/detach churn and full simulator resets — and replays the exact same
// host-side instruction stream under every kernel in Simulator::kAllKernels.
// Everything architecturally observable must be byte-identical to the
// brute-force reference: responses, final register/flag files, cycle counts,
// device and transport counters, VCD waveform bytes.
//
// Every decision is drawn from one Xoshiro256 stream per System seed, so a
// failure report ("seed N diverged") replays exactly.  `FPGAFU_FUZZ_SYSTEMS`
// scales the System count (default 200; CI runs an abbreviated count under
// the sanitizers, local soaks can run thousands).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fu/scratchpad_unit.hpp"
#include "host/algod.hpp"
#include "host/coprocessor.hpp"
#include "host/reliable_transport.hpp"
#include "sim/vcd.hpp"
#include "support/fsm_units.hpp"
#include "support/program_gen.hpp"
#include "top/system.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fpgafu::rtm {
namespace {

using fpgafu::testing::ProgramGenOptions;
using fpgafu::testing::random_program;
using sim::Simulator;

/// Function code the fuzzer's scratchpad unit attaches under.
constexpr isa::FunctionCode kScratchCode = isa::fc::kUserBase;

std::size_t fuzz_system_count() {
  if (const char* env = std::getenv("FPGAFU_FUZZ_SYSTEMS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  return 200;
}

/// What happens between two program segments of one fuzzed System.
enum class Churn : std::uint8_t {
  kNone,
  kDetachScratch,   ///< partial-reconfiguration analogue: unit goes away
  kAttachScratch,   ///< ... and comes back
  kSimulatorReset,  ///< full reset mid-activity (activity state must drop)
};

/// One fuzzed System, decided entirely up front from the seed so the same
/// elaboration + instruction stream replays under every kernel.
struct FuzzSpec {
  std::uint64_t seed = 0;
  top::SystemConfig config;
  std::size_t scratch_words = 0;  ///< 0 = no scratchpad unit
  std::vector<isa::Program> segments;
  std::vector<Churn> churn;  ///< churn[i] runs after segments[i]
  bool with_vcd = false;
  /// Timed-wake axis: when set, the stateless units are FSM units
  /// (testing::make_fsm_units) iterating these clock counts.
  std::optional<std::array<std::uint32_t, 6>> fsm_cycles;
};

/// A few scratchpad operations: set up address/data registers with PUTs,
/// then dispatch to the user-code unit.  Addresses are mostly in range,
/// sometimes deliberately past the end (error-flag path).
void append_scratch_ops(isa::Program& p, Xoshiro256& rng,
                        const rtm::RtmConfig& rcfg, std::size_t words,
                        isa::FunctionCode code = kScratchCode) {
  const auto data_reg = [&] {
    return static_cast<isa::RegNum>(rng.below(rcfg.data_regs));
  };
  const auto flag_reg = [&] {
    return static_cast<isa::RegNum>(rng.below(rcfg.flag_regs));
  };
  const auto ops = rng.range(3, 10);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const isa::RegNum addr_reg = data_reg();
    const isa::RegNum value_reg = data_reg();
    const isa::Word addr = rng.chance(1, 5) ? words + rng.below(3)
                                            : rng.below(words);
    p.emit_put(addr_reg, addr);
    p.emit_put(value_reg, rng.next());
    isa::Instruction inst;
    inst.function = code;
    switch (rng.below(5)) {
      case 0: inst.variety = fu::ScratchpadUnit::kRead; break;
      case 1: inst.variety = fu::ScratchpadUnit::kFill; break;
      case 2: inst.variety = fu::ScratchpadUnit::kSize; break;
      default: inst.variety = fu::ScratchpadUnit::kWrite; break;
    }
    inst.src1 = addr_reg;
    inst.src2 = value_reg;
    inst.dst1 = data_reg();
    inst.src_flag = flag_reg();
    inst.dst_flag = flag_reg();
    p.emit(inst);
  }
}

/// `timed` adds the timed-wake axis after every other draw (so the plain
/// fuzzer's corpus is unchanged): FSM units at 1..8 Execute cycles each,
/// links from tight to a 64-cycle burst and a slow serial link, and an
/// upstream that duplicates words and adds latency in both directions.
FuzzSpec make_spec(std::uint64_t seed, bool timed = false) {
  Xoshiro256 rng(seed);
  FuzzSpec s;
  s.seed = seed;
  top::SystemConfig& cfg = s.config;

  // Register-file and FIFO geometry.
  cfg.rtm.data_regs = rng.range(8, 24);
  cfg.rtm.flag_regs = rng.range(2, 8);
  cfg.rtm.round_robin_arbiter = rng.chance(1, 2);
  cfg.message_buffer_depth = rng.range(1, 8);
  cfg.serializer_depth = rng.range(1, 4);

  // Link shape: latency/interval and optional bounded transfer buffers.
  cfg.link_down = {static_cast<std::uint32_t>(rng.range(1, 3)),
                   static_cast<std::uint32_t>(rng.range(1, 2))};
  cfg.link_up = {static_cast<std::uint32_t>(rng.range(1, 3)),
                 static_cast<std::uint32_t>(rng.range(1, 2))};
  if (rng.chance(1, 2)) {
    cfg.link_down_capacity = rng.range(2, 8);
  }
  if (rng.chance(1, 2)) {
    cfg.link_up_capacity = rng.range(2, 8);
  }

  // Roughly half the Systems run over a fault-injecting link (each upstream
  // fault class up to 3%, downstream jitter only — downstream losses are
  // beyond what the transport's retry protocol recovers); ReliableTransport
  // recovers, and every retry must play out identically under every kernel.
  if (rng.chance(1, 2)) {
    msg::FaultConfig f;
    f.seed = rng.next();
    f.up.drop_ppm = static_cast<std::uint32_t>(rng.below(30'001));
    f.up.corrupt_ppm = static_cast<std::uint32_t>(rng.below(30'001));
    f.up.duplicate_ppm = static_cast<std::uint32_t>(rng.below(30'001));
    f.up.jitter_max = static_cast<std::uint32_t>(rng.below(4));
    f.down.jitter_max = static_cast<std::uint32_t>(rng.below(3));
    cfg.link_faults = f;
  }

  // FU mix: arithmetic always attached so programs do real work; every
  // other unit is a coin toss (ops aimed at a missing unit come back as
  // error responses — which must also be identical across kernels).
  cfg.with_arithmetic = true;
  cfg.with_logic = rng.chance(3, 4);
  cfg.with_shift = rng.chance(3, 4);
  cfg.with_muldiv = rng.chance(2, 3);
  cfg.with_float = rng.chance(2, 3);
  cfg.with_trig = rng.chance(1, 2);
  const fu::Skeleton skeletons[] = {fu::Skeleton::kMinimal,
                                    fu::Skeleton::kMinimalFwd,
                                    fu::Skeleton::kFsm,
                                    fu::Skeleton::kPipelined};
  cfg.stateless_skeleton = skeletons[rng.below(4)];

  // A quarter of the Systems carry the χ-sort cell array: a wide, mostly
  // idle component population that stresses the wake and commit sets.
  if (rng.chance(1, 4)) {
    cfg.with_xsort = true;
    cfg.xsort.cells = static_cast<std::size_t>(rng.range(4, 32));
    cfg.xsort.interval_bits = 16;
  }

  // Half carry a scratchpad unit at a user function code.
  if (rng.chance(1, 2)) {
    s.scratch_words = rng.range(4, 64);
  }

  // 1..3 program segments with churn in the gaps.
  const std::uint64_t segments = rng.range(1, 3);
  bool attached = s.scratch_words > 0;
  for (std::uint64_t i = 0; i < segments; ++i) {
    ProgramGenOptions opt;
    opt.instructions = rng.range(30, 120);
    opt.include_errors = rng.chance(1, 3);
    isa::Program p = random_program(cfg.rtm, rng.next(), opt);
    if (attached) {
      append_scratch_ops(p, rng, cfg.rtm, s.scratch_words);
    }
    s.segments.push_back(std::move(p));
    if (i + 1 == segments) {
      break;
    }
    Churn churn = Churn::kNone;
    if (rng.chance(1, 4)) {
      churn = Churn::kSimulatorReset;
    } else if (s.scratch_words > 0 && rng.chance(1, 2)) {
      churn = attached ? Churn::kDetachScratch : Churn::kAttachScratch;
      attached = !attached;
    }
    s.churn.push_back(churn);
  }

  s.with_vcd = (seed % 4) == 0;
  if (timed) {
    std::array<std::uint32_t, 6> cycles{};
    for (auto& c : cycles) {
      c = static_cast<std::uint32_t>(rng.range(1, 8));
    }
    s.fsm_cycles = cycles;
    const msg::LinkTiming timings[] = {msg::kTightLink.timing,
                                       msg::kBurstLink.timing,
                                       msg::kSerialLink.timing,
                                       cfg.link_down};
    cfg.link_down = timings[rng.below(4)];
    cfg.link_up = timings[rng.below(4)];
    if (rng.chance(2, 3)) {
      msg::FaultConfig f;
      f.seed = rng.next();
      f.up.duplicate_ppm = static_cast<std::uint32_t>(rng.below(60'001));
      f.up.drop_ppm = static_cast<std::uint32_t>(rng.below(20'001));
      f.up.jitter_max = static_cast<std::uint32_t>(rng.below(9));
      f.down.jitter_max = static_cast<std::uint32_t>(rng.below(9));
      cfg.link_faults = f;
    } else {
      cfg.link_faults = {};
    }
  }
  return s;
}

/// Everything architecturally observable from one replay of a FuzzSpec.
struct FuzzRun {
  std::vector<msg::Response> responses;
  std::vector<isa::Word> regs;
  std::vector<isa::FlagWord> flags;
  std::uint64_t cycles = 0;
  std::map<std::string, std::uint64_t> rtm_counters;
  std::map<std::string, std::uint64_t> transport_counters;
  std::string vcd;
};

FuzzRun run_spec_or_throw(const FuzzSpec& s, Simulator::Kernel kernel) {
  top::SystemConfig config = s.config;
  if (s.fsm_cycles) {
    config.with_arithmetic = config.with_logic = config.with_shift = false;
    config.with_muldiv = config.with_float = config.with_trig = false;
  }
  top::System sys(config);
  sys.simulator().set_kernel(kernel);
  std::vector<fpgafu::testing::CodedUnit> fsm_units;
  if (s.fsm_cycles) {
    fsm_units = fpgafu::testing::make_fsm_units(
        sys.simulator(), s.config.rtm.word_width, *s.fsm_cycles);
    for (auto& [code, unit] : fsm_units) {
      sys.attach(code, *unit);
    }
  }
  std::unique_ptr<fu::ScratchpadUnit> scratch;
  if (s.scratch_words > 0) {
    scratch = std::make_unique<fu::ScratchpadUnit>(
        sys.simulator(), "scratch", s.scratch_words, s.config.rtm.word_width);
    sys.attach(kScratchCode, *scratch);
  }
  host::Coprocessor copro(sys);
  host::ReliableTransport transport(copro);

  std::ostringstream vcd_os;
  std::unique_ptr<sim::VcdWriter> vcd;
  if (s.with_vcd) {
    vcd = std::make_unique<sim::VcdWriter>(sys.simulator(), vcd_os, 20);
    vcd->probe("r0", 32, [&] { return sys.rtm().regs().read(0); });
    vcd->probe("r1", 32, [&] { return sys.rtm().regs().read(1); });
    vcd->probe("f0", 8, [&] { return sys.rtm().flags().read(0); });
  }

  FuzzRun out;
  for (std::size_t i = 0; i < s.segments.size(); ++i) {
    const std::vector<msg::Response> resp = transport.call(s.segments[i]);
    out.responses.insert(out.responses.end(), resp.begin(), resp.end());
    if (i >= s.churn.size()) {
      continue;
    }
    switch (s.churn[i]) {
      case Churn::kNone:
        break;
      case Churn::kDetachScratch:
        // call() drained the system, so the unit is quiescent; subsequent
        // scratch ops come back as unknown-function error responses.
        sys.detach(kScratchCode);
        break;
      case Churn::kAttachScratch:
        sys.attach(kScratchCode, *scratch);
        break;
      case Churn::kSimulatorReset:
        // Full reset mid-run: every component back to power-on state, any
        // compiled schedule / activity bookkeeping dropped.  The host driver
        // notices via reset_generation and discards torn frames.
        sys.simulator().reset();
        sys.rtm().clear_state();
        break;
    }
  }

  for (std::size_t r = 0; r < s.config.rtm.data_regs; ++r) {
    out.regs.push_back(sys.rtm().regs().read(static_cast<isa::RegNum>(r)));
  }
  for (std::size_t r = 0; r < s.config.rtm.flag_regs; ++r) {
    out.flags.push_back(sys.rtm().flags().read(static_cast<isa::RegNum>(r)));
  }
  out.cycles = sys.simulator().cycle();
  out.rtm_counters = sys.rtm().counters().all();
  out.transport_counters = transport.counters().all();
  out.vcd = vcd_os.str();
  return out;
}

/// run_spec_or_throw with the replay coordinates (seed, kernel) stitched
/// into any simulation error, so a fuzzer failure is reproducible from the
/// gtest output alone.
FuzzRun run_spec(const FuzzSpec& s, Simulator::Kernel kernel) {
  try {
    return run_spec_or_throw(s, kernel);
  } catch (const SimError& e) {
    throw SimError("fuzz seed " + std::to_string(s.seed) + " under kernel " +
                   Simulator::kernel_name(kernel) + ": " + e.what());
  }
}

TEST(KernelFuzz, RandomTopologiesAgreeAcrossAllKernels) {
  const std::size_t systems = fuzz_system_count();
  for (std::size_t i = 0; i < systems; ++i) {
    const std::uint64_t seed = 0xF0220000ULL + i;
    const FuzzSpec spec = make_spec(seed);
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));

    const FuzzRun ref = run_spec(spec, Simulator::Kernel::kBruteForce);
    ASSERT_FALSE(ref.responses.empty());
    for (const auto kernel : Simulator::kAllKernels) {
      if (kernel == Simulator::Kernel::kBruteForce) {
        continue;
      }
      const FuzzRun got = run_spec(spec, kernel);
      const char* who = Simulator::kernel_name(kernel);
      ASSERT_EQ(got.responses.size(), ref.responses.size()) << who;
      for (std::size_t r = 0; r < got.responses.size(); ++r) {
        ASSERT_EQ(got.responses[r], ref.responses[r])
            << who << " response " << r << ": "
            << msg::to_string(got.responses[r]) << " vs brute "
            << msg::to_string(ref.responses[r]);
      }
      EXPECT_EQ(got.regs, ref.regs) << who;
      EXPECT_EQ(got.flags, ref.flags) << who;
      EXPECT_EQ(got.cycles, ref.cycles) << who;
      EXPECT_EQ(got.rtm_counters, ref.rtm_counters) << who;
      EXPECT_EQ(got.transport_counters, ref.transport_counters) << who;
      EXPECT_EQ(got.vcd, ref.vcd) << who;
    }
  }
}

// The timed-wake axis: FSM units that sleep through Execute and links that
// sleep until a word arrives or a serialisation interval ends, on the same
// generated topologies and churn as above.
TEST(KernelFuzz, TimedWakeTopologiesAgreeAcrossAllKernels) {
  const std::size_t systems =
      std::max<std::size_t>(fuzz_system_count() / 2, 16);
  for (std::size_t i = 0; i < systems; ++i) {
    const std::uint64_t seed = 0x7173D000ULL + i;
    const FuzzSpec spec = make_spec(seed, /*timed=*/true);
    SCOPED_TRACE("timed fuzz seed " + std::to_string(seed));

    const FuzzRun ref = run_spec(spec, Simulator::Kernel::kBruteForce);
    ASSERT_FALSE(ref.responses.empty());
    for (const auto kernel : Simulator::kAllKernels) {
      if (kernel == Simulator::Kernel::kBruteForce) {
        continue;
      }
      const FuzzRun got = run_spec(spec, kernel);
      const char* who = Simulator::kernel_name(kernel);
      ASSERT_EQ(got.responses, ref.responses) << who;
      EXPECT_EQ(got.regs, ref.regs) << who;
      EXPECT_EQ(got.flags, ref.flags) << who;
      EXPECT_EQ(got.cycles, ref.cycles) << who;
      EXPECT_EQ(got.rtm_counters, ref.rtm_counters) << who;
      EXPECT_EQ(got.transport_counters, ref.transport_counters) << who;
      EXPECT_EQ(got.vcd, ref.vcd) << who;
    }
  }
}

// ---------------------------------------------------------------------------
// Managed-mode churn: the same differential pin, but with mid-program
// attach/detach driven through host::FuManager instead of raw System calls.
// Two single-code images compete for a one-slot budget, so every swap in the
// schedule exercises the full drain → finish_detach → loader → attach path;
// ops aimed at the non-resident image must come back as kUnitUnavailable
// (identically, under every kernel), and the manager's own counters — which
// include clock-charged load/drain cycles — must match byte-for-byte too.

/// Second managed function code, competing with kScratchCode for the slot.
constexpr isa::FunctionCode kAltCode = isa::fc::kUserBase + 1;

/// One managed-churn fuzz case, decided up front from the seed.
struct ManagedSpec {
  std::uint64_t seed = 0;
  top::SystemConfig config;
  std::size_t scratch_words = 8;
  std::size_t alt_words = 8;
  std::uint64_t scratch_load_cycles = 0;
  std::uint64_t alt_load_cycles = 0;
  std::vector<isa::Program> segments;
  /// resident[i] is ensured through the manager before segments[i] runs; a
  /// repeat is a cache hit, a change is an evict+load swap.
  std::vector<std::string> resident;
  bool with_vcd = false;
};

ManagedSpec make_managed_spec(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ManagedSpec s;
  s.seed = seed;
  top::SystemConfig& cfg = s.config;

  cfg.rtm.data_regs = rng.range(8, 16);
  cfg.rtm.flag_regs = rng.range(2, 6);
  cfg.rtm.round_robin_arbiter = rng.chance(1, 2);
  cfg.message_buffer_depth = rng.range(1, 6);
  cfg.link_down = {static_cast<std::uint32_t>(rng.range(1, 3)),
                   static_cast<std::uint32_t>(rng.range(1, 2))};
  cfg.link_up = {static_cast<std::uint32_t>(rng.range(1, 3)),
                 static_cast<std::uint32_t>(rng.range(1, 2))};
  cfg.with_arithmetic = true;
  cfg.with_logic = rng.chance(1, 2);

  s.scratch_words = rng.range(4, 32);
  s.alt_words = rng.range(4, 32);
  s.scratch_load_cycles = rng.range(0, 400);
  s.alt_load_cycles = rng.range(0, 400);

  const std::uint64_t segments = rng.range(2, 4);
  std::string resident = rng.chance(1, 2) ? "scratch" : "alt";
  for (std::uint64_t i = 0; i < segments; ++i) {
    s.resident.push_back(resident);
    ProgramGenOptions opt;
    opt.instructions = rng.range(20, 60);
    opt.include_errors = rng.chance(1, 3);
    isa::Program p = random_program(cfg.rtm, rng.next(), opt);
    const isa::FunctionCode here =
        resident == "scratch" ? kScratchCode : kAltCode;
    const std::size_t words =
        resident == "scratch" ? s.scratch_words : s.alt_words;
    append_scratch_ops(p, rng, cfg.rtm, words, here);
    if (rng.chance(1, 3)) {
      // A few ops for the image that is NOT resident: these must drain out
      // as kUnitUnavailable error responses under every kernel.
      append_scratch_ops(p, rng, cfg.rtm, words,
                         here == kScratchCode ? kAltCode : kScratchCode);
    }
    s.segments.push_back(std::move(p));
    if (rng.chance(2, 3)) {
      resident = resident == "scratch" ? "alt" : "scratch";
    }
  }
  s.with_vcd = (seed % 4) == 0;
  return s;
}

FuzzRun run_managed_or_throw(const ManagedSpec& s, Simulator::Kernel kernel) {
  top::System sys(s.config);
  sys.simulator().set_kernel(kernel);
  host::Coprocessor copro(sys);
  host::ReliableTransport transport(copro);

  host::FuManagerConfig mcfg;
  mcfg.slots = 1;  // one physical slot: every image change is a full swap
  host::FuManager manager(copro, mcfg);
  const auto scratch_factory = [words = s.scratch_words, &cfg = s.config](
                                   sim::Simulator& sim,
                                   isa::FunctionCode) {
    return std::unique_ptr<fu::FunctionalUnit>(new fu::ScratchpadUnit(
        sim, "scratch", words, cfg.rtm.word_width));
  };
  const auto alt_factory = [words = s.alt_words, &cfg = s.config](
                               sim::Simulator& sim, isa::FunctionCode) {
    return std::unique_ptr<fu::FunctionalUnit>(
        new fu::ScratchpadUnit(sim, "alt", words, cfg.rtm.word_width));
  };
  host::AlgorithmImage scratch_img;
  scratch_img.name = "scratch";
  scratch_img.codes = {kScratchCode};
  scratch_img.load_cycles = s.scratch_load_cycles;
  scratch_img.factory = scratch_factory;
  manager.register_image(std::move(scratch_img));
  host::AlgorithmImage alt_img;
  alt_img.name = "alt";
  alt_img.codes = {kAltCode};
  alt_img.load_cycles = s.alt_load_cycles;
  alt_img.factory = alt_factory;
  manager.register_image(std::move(alt_img));

  std::ostringstream vcd_os;
  std::unique_ptr<sim::VcdWriter> vcd;
  if (s.with_vcd) {
    vcd = std::make_unique<sim::VcdWriter>(sys.simulator(), vcd_os, 20);
    vcd->probe("r0", 32, [&] { return sys.rtm().regs().read(0); });
    vcd->probe("f0", 8, [&] { return sys.rtm().flags().read(0); });
  }

  FuzzRun out;
  for (std::size_t i = 0; i < s.segments.size(); ++i) {
    manager.ensure_resident(s.resident[i]);
    const std::vector<msg::Response> resp = transport.call(s.segments[i]);
    out.responses.insert(out.responses.end(), resp.begin(), resp.end());
  }

  for (std::size_t r = 0; r < s.config.rtm.data_regs; ++r) {
    out.regs.push_back(sys.rtm().regs().read(static_cast<isa::RegNum>(r)));
  }
  for (std::size_t r = 0; r < s.config.rtm.flag_regs; ++r) {
    out.flags.push_back(sys.rtm().flags().read(static_cast<isa::RegNum>(r)));
  }
  out.cycles = sys.simulator().cycle();
  out.rtm_counters = sys.rtm().counters().all();
  // Fold in the manager's counters (keys are "algod."-prefixed, so they
  // cannot collide): swap accounting must also be kernel-independent.
  for (const auto& [key, value] : manager.counters().all()) {
    out.rtm_counters[key] = value;
  }
  out.transport_counters = transport.counters().all();
  out.vcd = vcd_os.str();
  return out;
}

FuzzRun run_managed(const ManagedSpec& s, Simulator::Kernel kernel) {
  try {
    return run_managed_or_throw(s, kernel);
  } catch (const SimError& e) {
    throw SimError("managed fuzz seed " + std::to_string(s.seed) +
                   " under kernel " + Simulator::kernel_name(kernel) + ": " +
                   e.what());
  }
}

TEST(KernelFuzz, ManagedSwapChurnAgreesAcrossAllKernels) {
  // Managed runs carry 2-4 segments with swaps in most gaps, so a quarter
  // of the plain-fuzz case count still yields hundreds of manager swaps.
  const std::size_t systems =
      std::max<std::size_t>(fuzz_system_count() / 4, 16);
  bool saw_unavailable = false;
  for (std::size_t i = 0; i < systems; ++i) {
    const std::uint64_t seed = 0xA190D000ULL + i;
    const ManagedSpec spec = make_managed_spec(seed);
    SCOPED_TRACE("managed fuzz seed " + std::to_string(seed));

    const FuzzRun ref = run_managed(spec, Simulator::Kernel::kBruteForce);
    ASSERT_FALSE(ref.responses.empty());
    ASSERT_GT(ref.rtm_counters.at("algod.loads"), 0u);
    for (const auto& resp : ref.responses) {
      if (resp.type == msg::Response::Type::kError &&
          resp.code ==
              static_cast<std::uint8_t>(msg::ErrorCode::kUnitUnavailable)) {
        saw_unavailable = true;
      }
    }
    for (const auto kernel : Simulator::kAllKernels) {
      if (kernel == Simulator::Kernel::kBruteForce) {
        continue;
      }
      const FuzzRun got = run_managed(spec, kernel);
      const char* who = Simulator::kernel_name(kernel);
      ASSERT_EQ(got.responses.size(), ref.responses.size()) << who;
      for (std::size_t r = 0; r < got.responses.size(); ++r) {
        ASSERT_EQ(got.responses[r], ref.responses[r])
            << who << " response " << r << ": "
            << msg::to_string(got.responses[r]) << " vs brute "
            << msg::to_string(ref.responses[r]);
      }
      EXPECT_EQ(got.regs, ref.regs) << who;
      EXPECT_EQ(got.flags, ref.flags) << who;
      EXPECT_EQ(got.cycles, ref.cycles) << who;
      EXPECT_EQ(got.rtm_counters, ref.rtm_counters) << who;
      EXPECT_EQ(got.transport_counters, ref.transport_counters) << who;
      EXPECT_EQ(got.vcd, ref.vcd) << who;
    }
  }
  // The schedule mixes in ops for the swapped-out image often enough that
  // the typed-unavailable path must have been exercised at least once.
  EXPECT_TRUE(saw_unavailable);
}

}  // namespace
}  // namespace fpgafu::rtm

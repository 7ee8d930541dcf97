#include "host/coprocessor.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fu/cam_unit.hpp"
#include "fu/prng_unit.hpp"
#include "host/reliable_transport.hpp"
#include "isa/assembler.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"

namespace fpgafu::host {
namespace {

TEST(Coprocessor, ScalarRegisterHelpers) {
  top::System sys({});
  Coprocessor copro(sys);
  copro.write_reg(3, 0xabcdef);
  copro.write_reg(4, 0x123456);
  EXPECT_EQ(copro.read_reg(3), 0xabcdefu);
  EXPECT_EQ(copro.read_reg(4), 0x123456u);
}

TEST(Coprocessor, BurstRegisterHelpers) {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 64;
  top::SystemConfig cfg;
  cfg.rtm = rcfg;
  top::System sys(cfg);
  Coprocessor copro(sys);
  Xoshiro256 rng(14);
  std::vector<isa::Word> values(20);
  for (auto& v : values) {
    v = rng.below(1u << 31);
  }
  copro.write_regs(10, values);
  EXPECT_EQ(copro.read_regs(10, 20), values);
  // Mixed access: scalar read of a burst-written register.
  EXPECT_EQ(copro.read_reg(15), values[5]);
}

TEST(Coprocessor, ReadRegOfBadRegisterThrows) {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 8;
  top::SystemConfig cfg;
  cfg.rtm = rcfg;
  top::System sys(cfg);
  Coprocessor copro(sys);
  // The error response does not match the expected data record.
  EXPECT_THROW(copro.read_reg(200), SimError);
}

TEST(Coprocessor, AsyncSubmitPollOverlap) {
  // submit() is fire-and-forget; poll() drains responses as the simulation
  // advances — the host can overlap issue with completion.
  top::System sys({});
  Coprocessor copro(sys);
  isa::Program p;
  for (int i = 0; i < 10; ++i) {
    p.emit_put(1, static_cast<isa::Word>(100 + i));
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = 1;
    p.emit(get);
  }
  copro.submit(p);
  std::vector<isa::Word> got;
  while (got.size() < 10) {
    sys.simulator().step();
    while (auto r = copro.poll()) {
      got.push_back(r->payload);
    }
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              static_cast<isa::Word>(100 + i));
  }
  EXPECT_EQ(copro.responses_received(), 10u);
}

TEST(Coprocessor, StatefulLibraryUnitsThroughTheSystem) {
  // The paper's three named stateful families, attached side by side and
  // driven purely through instructions.
  top::System sys({});
  fu::PrngUnit prng(sys.simulator(), "prng", 32);
  fu::CamUnit cam(sys.simulator(), "cam", 16);
  sys.attach(isa::fc::kUserBase + 3, prng);
  sys.attach(isa::fc::kUserBase + 4, cam);
  Coprocessor copro(sys);

  auto unit_op = [&](isa::FunctionCode f, isa::VarietyCode v, isa::RegNum src1,
                     isa::RegNum src2, isa::RegNum dst) {
    isa::Instruction inst;
    inst.function = f;
    inst.variety = v;
    inst.src1 = src1;
    inst.src2 = src2;
    inst.dst1 = dst;
    return inst;
  };

  // Seed the PRNG, draw a value into r2, store it in the CAM under key 7,
  // and look it up again.
  isa::Program p;
  p.emit_put(1, 42);  // seed / key material
  p.emit(unit_op(isa::fc::kUserBase + 3, fu::PrngUnit::kSeed, 1, 0, 2));
  p.emit(unit_op(isa::fc::kUserBase + 3, fu::PrngUnit::kNext, 0, 0, 2));
  p.emit_put(3, 7);  // CAM key
  p.emit(unit_op(isa::fc::kUserBase + 4, fu::CamUnit::kInsert, 3, 2, 4));
  p.emit(unit_op(isa::fc::kUserBase + 4, fu::CamUnit::kLookup, 3, 0, 5));
  isa::Instruction get2, get5;
  get2.function = get5.function = isa::fc::kRtm;
  get2.variety = get5.variety =
      static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get2.src1 = 2;
  get5.src1 = 5;
  p.emit(get2);
  p.emit(get5);
  const auto responses = copro.call(p);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].payload, 0u);                 // the drawn value
  EXPECT_EQ(responses[1].payload, responses[0].payload);  // CAM returned it
}

// -- Quiet-cycle skipping ----------------------------------------------------
// The pump advances the clock with Simulator::advance, which moves straight
// over cycles in which nothing is scheduled.  These tests pin that the
// skipped cycles change nothing: every count equals the brute-force
// kernel's, which executes every cycle.

/// A 64-bit machine: its FSM multiply holds the muldiv unit for 64 cycles.
top::SystemConfig wide_config() {
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;
  return cfg;
}

/// 64 back-to-back multiplies on the one muldiv unit, then a read-back of
/// the last eight products: about 4 200 cycles, nearly all of them spent
/// waiting for the unit with nothing else to do.
isa::Program multiply_chain() {
  std::string text = "PUTI r1, 123\nPUTI r2, 45\n";
  for (int i = 0; i < 64; ++i) {
    text += "MUL r" + std::to_string(3 + i % 8) + ", r1, r2, f" +
            std::to_string(1 + i % 4) + "\n";
  }
  text += "GETV r3, 8\n";
  return isa::Assembler::assemble(text);
}

struct ChainRun {
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  std::vector<msg::Response> responses;
  std::map<std::string, std::uint64_t> rtm;
  std::uint64_t words_down = 0;
  std::uint64_t words_up = 0;
};

ChainRun run_chain(sim::Simulator::Kernel kernel) {
  top::System sys(wide_config());
  sim::Simulator& sim = sys.simulator();
  sim.set_kernel(kernel);
  Coprocessor copro(sys);
  ChainRun out;
  const std::uint64_t steps = sim.steps_performed();
  out.responses = copro.call(multiply_chain());
  out.cycles = sim.cycle();
  out.steps = sim.steps_performed() - steps;
  out.rtm = sys.rtm().counters().all();
  out.words_down = sys.link().words_down();
  out.words_up = sys.link().words_up();
  return out;
}

TEST(QuietCycleSkipping, MultiplyChainCountsMatchTheBruteForceKernel) {
  const ChainRun brute = run_chain(sim::Simulator::Kernel::kBruteForce);
  const ChainRun event = run_chain(sim::Simulator::Kernel::kEvent);
  EXPECT_GT(brute.cycles, 64u * 64u);
  EXPECT_EQ(brute.steps, brute.cycles);  // the reference never skips
  EXPECT_EQ(event.cycles, brute.cycles);
  EXPECT_EQ(event.responses, brute.responses);
  EXPECT_EQ(event.rtm, brute.rtm);
  EXPECT_EQ(event.words_down, brute.words_down);
  EXPECT_EQ(event.words_up, brute.words_up);
  ASSERT_EQ(event.responses.size(), 8u);
  EXPECT_EQ(event.responses.back().payload, 123u * 45u);
  EXPECT_GT(event.rtm.at("stall.unit_busy"), 60u * 60u);
  // The event kernel executes a step only where something is scheduled:
  // around each dispatch and write-back, not through the multiplies.
  EXPECT_LE(event.steps, 500u) << "of " << event.cycles << " cycles";
}

/// Three dependent 64-cycle multiplies: long quiet waits, one response.
isa::Program dependent_multiplies() {
  return isa::Assembler::assemble(R"(
    PUTI r1, 7
    MUL r2, r1, r1, f1
    MUL r3, r2, r2, f1
    MUL r4, r3, r3, f1
    GET r4
  )");
}

TEST(QuietCycleSkipping, ADeadlineExpiringInASkippedWaitThrowsOnItsCycle) {
  // The call's 150-cycle budget runs out in the middle of the second
  // multiply.  The
  // pump never skips past the expiry, so the call throws at exactly the
  // cycle a host looking every cycle would.
  const isa::Program p = dependent_multiplies();
  constexpr std::uint64_t kBudget = 150;
  for (const auto kernel : sim::Simulator::kAllKernels) {
    top::System sys(wide_config());
    sim::Simulator& sim = sys.simulator();
    sim.set_kernel(kernel);
    Coprocessor copro(sys);
    const std::uint64_t start = sim.cycle();
    const std::uint64_t steps = sim.steps_performed();
    EXPECT_THROW(copro.call(p, kBudget), SimError);
    EXPECT_EQ(sim.cycle(), start + kBudget) << sim::Simulator::kernel_name(kernel);
    if (kernel == sim::Simulator::Kernel::kEvent) {
      EXPECT_LT(sim.steps_performed() - steps, kBudget / 2);
    }
  }
}

TEST(QuietCycleSkipping, AProgramWatchdogExpiringInASkippedWaitFiresOnItsCycle) {
  // The same chain through a transport window whose per-program watchdog
  // is the only bound (the pump's own deadline is unbounded, as in a Farm
  // shard): the transport's wake names the expiry, so it fires on exactly
  // the cycle the program's budget runs out.
  const isa::Program p = dependent_multiplies();
  constexpr std::uint64_t kBudget = 150;
  top::System sys(wide_config());
  sim::Simulator& sim = sys.simulator();
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  const std::uint64_t start = sim.cycle();
  transport.submit(p, kBudget);
  EXPECT_THROW(copro.pump().run_until(
                   [&] {
                     transport.service();
                     return transport.poll_completed() ? Wake::done()
                                                       : transport.next_wake();
                   },
                   Deadline::unbounded(sim), "watchdog test"),
               SimError);
  EXPECT_EQ(sim.cycle(), start + kBudget);
}

TEST(QuietCycleSkipping, AWatchdogBehindAnotherProgramFiresOnItsCycle) {
  // Two programs in the window.  B reads r4, which A's third multiply
  // writes, so B cannot answer within its 150-cycle budget; A, with the
  // front entry's retry deadline and tail probe, has a far longer one.
  // Only B's watchdog names the expiry cycle, so the pump (unbounded, as
  // in a Farm shard) wakes on it only through next_wake().
  const isa::Program a = isa::Assembler::assemble(R"(
    PUTI r1, 7
    MUL r2, r1, r1, f1
    MUL r3, r2, r2, f1
    MUL r4, r3, r3, f1
    MUL r5, r4, r4, f1
    MUL r6, r5, r5, f1
    GET r6
  )");
  const isa::Program b = isa::Assembler::assemble("GET r4");
  constexpr std::uint64_t kBudget = 150;
  top::System sys(wide_config());
  sim::Simulator& sim = sys.simulator();
  Coprocessor copro(sys);
  TransportConfig tc;
  tc.window = 2;
  ReliableTransport transport(copro, tc);
  const std::uint64_t start = sim.cycle();
  transport.submit(a, 100'000);
  transport.submit(b, kBudget);
  EXPECT_THROW(copro.pump().run_until(
                   [&] {
                     transport.service();
                     while (transport.poll_completed()) {
                     }
                     return transport.next_wake();
                   },
                   Deadline::unbounded(sim), "watchdog behind a program"),
               SimError);
  EXPECT_EQ(sim.cycle(), start + kBudget);
}

// -- The host's next-event contract ------------------------------------------
// The pump runs the host side only at the cycles it could act.  The
// reference is a host loop that services the driver, runs the predicate and
// steps on every cycle.  Both must end on the same
// cycle with the same responses and counts, on every link shape the wake
// rules distinguish: unbounded, a bounded uplink (every arrival frees a
// slot), a bounded downlink (queued words wait for space), a slow serial
// link, and a lossy uplink (retries, probes, stray words).

struct LinkCase {
  const char* name;
  top::SystemConfig config;
};

std::vector<LinkCase> link_cases() {
  std::vector<LinkCase> cases;
  top::SystemConfig base = wide_config();
  cases.push_back({"tight", base});
  top::SystemConfig up = base;
  up.link_up_capacity = 1;
  cases.push_back({"bounded uplink", up});
  top::SystemConfig down = base;
  down.link_down_capacity = 2;
  cases.push_back({"bounded downlink", down});
  top::SystemConfig serial = base;
  serial.link_down = msg::kSerialLink.timing;
  serial.link_up = msg::kSerialLink.timing;
  cases.push_back({"serial", serial});
  // Seed 13 leaves a duplicated word trailing a call's last frame: the
  // drain must take it off the link the cycle it arrives.
  top::SystemConfig lossy = base;
  lossy.link_faults.seed = 13;
  lossy.link_faults.up.drop_ppm = 30'000;
  lossy.link_faults.up.duplicate_ppm = 30'000;
  lossy.link_faults.up.jitter_max = 3;
  cases.push_back({"lossy uplink", lossy});
  // Lossy enough that probes are lost too, so lost probes are re-sent.
  top::SystemConfig very_lossy = base;
  very_lossy.link_faults.seed = 2;
  very_lossy.link_faults.up.drop_ppm = 120'000;
  cases.push_back({"very lossy uplink", very_lossy});
  return cases;
}

/// A few multiplies (quiet waits), a burst read, a SYNC, a write the
/// transport holds at its write barrier until the read before it is
/// answered, and a multiply still running after the last response (the
/// call then waits for the system to go idle).
isa::Program mixed_program() {
  return isa::Assembler::assemble(R"(
    PUTI r1, 9
    PUTI r2, 7
    MUL r3, r1, r2, f1
    MUL r4, r3, r2, f2
    ADD r5, r1, r2, f3
    GETV r1, 5
    SYNC
    GET r4
    PUTI r4, 3
    GET r4
    MUL r6, r1, r2, f4
  )");
}

struct HostRun {
  std::uint64_t cycles = 0;
  std::vector<msg::Response> responses;
  std::map<std::string, std::uint64_t> rtm;
  std::map<std::string, std::uint64_t> transport;
  std::uint64_t words_up = 0;
};

HostRun finish(top::System& sys, std::vector<msg::Response> responses) {
  HostRun out;
  out.cycles = sys.simulator().cycle();
  out.responses = std::move(responses);
  out.rtm = sys.rtm().counters().all();
  out.words_up = sys.link().words_up();
  return out;
}

/// Step until `done`, servicing the driver every cycle.
template <typename Done>
void every_cycle(top::System& sys, Driver& driver, Done&& done) {
  for (int i = 0; i < 1'000'000; ++i) {
    driver.service();
    if (done()) {
      return;
    }
    sys.simulator().step();
  }
  FAIL() << "reference host loop did not finish";
}

TEST(HostNextEvent, CoprocessorCallMatchesAHostThatLooksEveryCycle) {
  const isa::Program p = mixed_program();
  for (const LinkCase& c : link_cases()) {
    if (c.config.link_faults.up.drop_ppm != 0) {
      continue;  // a plain call has no recovery
    }
    SCOPED_TRACE(c.name);
    top::System sys(c.config);
    Coprocessor copro(sys);
    const HostRun pumped = finish(sys, copro.call(p));

    top::System ref_sys(c.config);
    Driver driver(ref_sys);
    driver.enqueue(p);
    std::vector<msg::Response> got;
    every_cycle(ref_sys, driver, [&] {
      while (auto r = driver.poll()) {
        got.push_back(*r);
      }
      return driver.tx_drained() && got.size() >= p.expected_responses() &&
             ref_sys.idle();
    });
    const HostRun reference = finish(ref_sys, std::move(got));
    EXPECT_EQ(pumped.cycles, reference.cycles);
    EXPECT_EQ(pumped.responses, reference.responses);
    EXPECT_EQ(pumped.rtm, reference.rtm);
    EXPECT_EQ(pumped.words_up, reference.words_up);
  }
}

TEST(HostNextEvent, TransportCallsMatchAHostThatLooksEveryCycle) {
  const isa::Program p = mixed_program();
  constexpr int kCalls = 6;
  for (const LinkCase& c : link_cases()) {
    SCOPED_TRACE(c.name);
    top::System sys(c.config);
    Coprocessor copro(sys);
    ReliableTransport transport(copro);
    std::vector<msg::Response> all;
    for (int i = 0; i < kCalls; ++i) {
      for (const msg::Response& r : transport.call(p)) {
        all.push_back(r);
      }
    }
    HostRun pumped = finish(sys, std::move(all));
    pumped.transport = transport.counters().all();

    // ReliableTransport::call unrolled into a loop that services the
    // driver and the transport every cycle, then drains to idle.
    top::System ref_sys(c.config);
    Coprocessor ref_copro(ref_sys);
    ReliableTransport ref_transport(ref_copro);
    Driver& driver = ref_copro.driver();
    std::vector<msg::Response> ref_all;
    // Probes sent with no response accepted since the probe before them:
    // that probe's answer was lost, and the probe is sent again.
    std::uint64_t resent_probes = 0;
    std::uint64_t probes_seen = 0;
    std::uint64_t received_at_probe = 0;
    for (int i = 0; i < kCalls; ++i) {
      ref_transport.submit(p);
      every_cycle(ref_sys, driver, [&] {
        ref_transport.service();
        const std::uint64_t probes =
            ref_transport.counters().get("transport.probes");
        if (probes > probes_seen) {
          if (probes_seen > 0 &&
              driver.responses_received() == received_at_probe) {
            ++resent_probes;
          }
          probes_seen = probes;
          received_at_probe = driver.responses_received();
        }
        if (auto done = ref_transport.poll_completed()) {
          for (const msg::Response& r : done->responses) {
            ref_all.push_back(r);
          }
          return true;
        }
        return false;
      });
      every_cycle(ref_sys, driver, [&] {
        while (driver.poll()) {
        }
        return ref_sys.idle();
      });
    }
    HostRun reference = finish(ref_sys, std::move(ref_all));
    reference.transport = ref_transport.counters().all();
    EXPECT_EQ(pumped.cycles, reference.cycles);
    EXPECT_EQ(pumped.responses, reference.responses);
    EXPECT_EQ(pumped.rtm, reference.rtm);
    EXPECT_EQ(pumped.words_up, reference.words_up);
    // The drain's stale drops are counted by call() only; compare the rest.
    pumped.transport.erase("transport.stale_dropped");
    reference.transport.erase("transport.stale_dropped");
    EXPECT_EQ(pumped.transport, reference.transport);
    if (c.config.link_faults.up.drop_ppm != 0) {
      EXPECT_GT(reference.transport.at("transport.retries"), 0u);
      EXPECT_GT(reference.transport.at("transport.probes"), 0u);
    }
    if (c.config.link_faults.up.drop_ppm > 100'000) {
      EXPECT_GT(resent_probes, 0u);
    }
  }
}

}  // namespace
}  // namespace fpgafu::host

#include "host/reliable_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fu/gemm_unit.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "isa/muldiv.hpp"
#include "support/program_gen.hpp"
#include "util/error.hpp"

namespace fpgafu::host {
namespace {

rtm::RtmConfig small_rtm() {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 12;
  rcfg.flag_regs = 4;
  return rcfg;
}

/// The host-side prediction must agree with the reference model on the
/// response count of every instruction, across random programs including
/// deliberate faults.
TEST(Framing, PredictMatchesReferenceModelCounts) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);  // provides the attached-unit table
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const isa::Program p = fpgafu::testing::random_program(
        small_rtm(), seed, {.instructions = 50, .include_errors = true});
    std::vector<InstructionGroup> groups;
    split_groups_into(p, groups);
    std::size_t predicted = 0;
    for (const InstructionGroup& g : groups) {
      predicted += predict(g.inst, sys.rtm().config(), sys.rtm().table()).count;
    }
    const auto expected = ReferenceModel(small_rtm()).run(p);
    EXPECT_EQ(predicted, expected.size()) << "seed " << seed;
  }
}

TEST(ReliableTransport, CleanLinkIsAPassthrough) {
  // Fresh machine per program: the reference model starts from zeroed
  // registers.
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    top::SystemConfig cfg;
    cfg.rtm = small_rtm();
    top::System sys(cfg);
    Coprocessor copro(sys);
    ReliableTransport transport(copro);
    const isa::Program p = fpgafu::testing::random_program(
        small_rtm(), seed, {.instructions = 30});
    const auto got = transport.call(p);
    const auto expected = ReferenceModel(small_rtm()).run(p);
    EXPECT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(transport.counters().get("transport.retries"), 0u);
    EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
  }
}

TEST(ReliableTransport, RecoversFromUpstreamFaults) {
  std::uint64_t total_faults = 0;
  std::uint64_t total_retries = 0;
  for (std::uint64_t seed = 31; seed <= 35; ++seed) {
    top::SystemConfig cfg;
    cfg.rtm = small_rtm();
    msg::FaultConfig f;
    f.seed = seed;
    f.up.drop_ppm = 40'000;
    f.up.corrupt_ppm = 40'000;
    f.up.duplicate_ppm = 40'000;
    cfg.link_faults = f;
    top::System sys(cfg);
    Coprocessor copro(sys);
    ReliableTransport transport(copro);

    const isa::Program p = fpgafu::testing::random_program(
        small_rtm(), seed, {.instructions = 25});
    const auto got = transport.call(p);
    const auto expected = ReferenceModel(small_rtm()).run(p);
    EXPECT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
    total_faults += sys.link().fault_counters().get("link.up_dropped") +
                    sys.link().fault_counters().get("link.up_corrupted");
    total_retries += transport.counters().get("transport.retries");
  }
  // At these rates faults certainly occurred and were recovered from.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(total_retries, 0u);
}

/// One GET of r1, the program the give-up tests send down a broken link.
isa::Program get_r1() {
  isa::Program p;
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 1;
  p.emit(get);
  return p;
}

/// A link that loses every data response but carries the SYNC answers:
/// each tail probe's answer proves the GET lost and re-sends it, and the
/// kMaxAttempts-th send that delivers nothing makes the transport give up.
TEST(ReliableTransport, GivesUpAfterMaxAttempts) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  transport.submit(get_r1());
  // The RTM answers in issue order, and every send of the GET goes out
  // before the probe that exposes its loss, so the first (1 + retries)
  // frames to arrive are the GET's answers: steal those, let the rest in.
  std::size_t stolen = 0;
  bool threw = false;
  for (int cycle = 0; cycle < 100'000 && !threw; ++cycle) {
    const std::uint64_t sends =
        1 + transport.counters().get("transport.retries");
    while (stolen < sends * msg::kLinkWordsPerResponse &&
           sys.link().host_receive()) {
      ++stolen;
    }
    try {
      transport.service();
    } catch (const SimError&) {
      threw = true;
    }
    sys.simulator().step();
  }
  ASSERT_TRUE(threw);
  transport.abort_in_flight();
  constexpr unsigned kAttempts = ReliableTransport::kMaxAttempts;
  EXPECT_EQ(stolen, kAttempts * msg::kLinkWordsPerResponse);
  EXPECT_EQ(transport.counters().get("transport.retries"), kAttempts - 1);
  EXPECT_EQ(transport.counters().get("transport.failures"), 1u);
  EXPECT_GE(transport.counters().get("transport.probes"), kAttempts);
}

/// Pins the tail probe's schedule, pto * 2^n: it doubles with every probe
/// sent, and saturates instead of overflowing, so a long watchdog budget
/// never shifts a probe time past 64 bits.
TEST(Backoff, FormulaIsCappedByConfiguredFactor) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(probe_interval(100, 0), 100u);
  EXPECT_EQ(probe_interval(100, 1), 200u);
  EXPECT_EQ(probe_interval(100, 2), 400u);
  EXPECT_EQ(probe_interval(100, 7), 12'800u);
  EXPECT_EQ(probe_interval(1, 63), std::uint64_t{1} << 63);
  // n >= 64 saturates whatever the PTO.
  EXPECT_EQ(probe_interval(1, 64), kMax);
  EXPECT_EQ(probe_interval(100, 65), kMax);
  EXPECT_EQ(probe_interval(8, 1'000), kMax);
  // So does a PTO whose shift would carry out of 64 bits.
  EXPECT_EQ(probe_interval(kMax / 2, 1), kMax - 1);  // the largest that fits
  EXPECT_EQ(probe_interval(kMax / 2 + 1, 1), kMax);
  EXPECT_EQ(probe_interval(std::uint64_t{3} << 62, 1), kMax);
  EXPECT_EQ(probe_interval(kMax, 0), kMax);
  EXPECT_EQ(probe_interval(kMax, 5), kMax);
}

/// A dead link gives up on the per-program watchdog, at exactly its
/// budget, and O(log) probes go out meanwhile: each waits twice as long as
/// the one before.  Nothing is re-sent, because nothing ever shows a loss.
TEST(Backoff, LargeMultiplierStillGivesUpInsideTheWatchdogBudget) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  msg::FaultConfig f;
  f.up.drop_ppm = 1'000'000;  // the FPGA's answers never get through
  cfg.link_faults = f;
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  constexpr std::uint64_t kBudget = 200'000;
  const std::uint64_t c0 = sys.simulator().cycle();
  EXPECT_THROW(transport.call(get_r1(), kBudget), SimError);
  EXPECT_EQ(sys.simulator().cycle() - c0, kBudget);
  const std::uint64_t probes = transport.counters().get("transport.probes");
  EXPECT_GE(probes, 2u);
  // Without a latency sample the re-probe waits from PTO = 8 cycles:
  // 8 * (2^n - 1) <= budget bounds n by log2(budget / 8) + 1.
  EXPECT_LE(probes, 16u);
  EXPECT_EQ(transport.counters().get("transport.retries"), 0u);
  EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
}

/// However small the watchdog budget, the probe machinery still runs
/// inside it: at least one probe goes out before the watchdog fires.
TEST(Backoff, ArmedDeadlineIsClampedToRemainingWatchdogBudget) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  msg::FaultConfig f;
  f.up.drop_ppm = 1'000'000;
  cfg.link_faults = f;
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  const std::uint64_t c0 = sys.simulator().cycle();
  EXPECT_THROW(transport.call(get_r1(), /*budget_cycles=*/10'000), SimError);
  EXPECT_EQ(sys.simulator().cycle() - c0, 10'000u);
  EXPECT_GE(transport.counters().get("transport.probes"), 1u);
}

/// The pipelined window must produce exactly what sequential call()s would:
/// one System with several programs in flight, each completion bit-identical
/// to a second, identical System running the same programs one call at a
/// time (call() itself is pinned against the reference model elsewhere).
TEST(ReliableTransport, PipelinedWindowMatchesSequentialCalls) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.window = 4;
  ReliableTransport transport(copro, tcfg);

  top::System seq_sys(cfg);
  Coprocessor seq_copro(seq_sys);
  ReliableTransport seq_transport(seq_copro);

  std::vector<isa::Program> programs;
  std::vector<std::vector<msg::Response>> expected;
  for (std::uint64_t seed = 41; seed <= 48; ++seed) {
    programs.push_back(fpgafu::testing::random_program(small_rtm(), seed,
                                                       {.instructions = 20}));
    expected.push_back(seq_transport.call(programs.back()));
  }

  std::vector<ReliableTransport::ProgramId> ids;
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  std::size_t next = 0;
  copro.pump().run_until(
      [&] {
        while (next < programs.size() && !transport.window_full()) {
          ids.push_back(transport.submit(programs[next++]));
        }
        transport.service();
        while (auto c = transport.poll_completed()) {
          got[c->id] = std::move(c->responses);
        }
        if (got.size() == programs.size()) {
          return Wake::done();
        }
        // A freed window slot takes the next program on the next cycle.
        return next < programs.size() && !transport.window_full()
                   ? Wake::at(sys.simulator().cycle() + 1)
                   : transport.next_wake();
      },
      Deadline(sys.simulator(), 10'000'000), "pipelined window test");

  EXPECT_EQ(transport.in_flight(), 0u);
  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(got[ids[i]], expected[i]) << "program " << i;
  }
}

/// The write barrier spans programs: a later program's read must observe an
/// earlier program's (response-less) write, even though both are in flight
/// at once — and a pure-write program still surfaces a (response-free)
/// completion.
TEST(ReliableTransport, WindowPreservesCrossProgramWriteOrder) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.window = 2;
  ReliableTransport transport(copro, tcfg);

  // PUT produces zero responses; GET reads the value back.
  const isa::Program writer = isa::Assembler::assemble("PUT r1, #42");
  const isa::Program reader = isa::Assembler::assemble("GET r1");

  const auto id_w = transport.submit(writer);
  const auto id_r = transport.submit(reader);
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  copro.pump().run_until(
      [&] {
        transport.service();
        while (auto c = transport.poll_completed()) {
          got[c->id] = std::move(c->responses);
        }
        return got.size() == 2 ? Wake::done() : transport.next_wake();
      },
      Deadline(sys.simulator(), 1'000'000), "write order test");

  EXPECT_TRUE(got[id_w].empty());  // writes produce no responses
  ASSERT_EQ(got[id_r].size(), 1u);
  EXPECT_EQ(got[id_r][0].payload, 42u);
}

/// Drives program A then program B through a window of 2 on a machine whose
/// r1 holds 7, swallowing the first response frame that reaches the host
/// (A's answer) so A's read has to be retried.  Returns the completions in
/// the order they surfaced, then GET r1 and GET r2 read back afterwards.
struct DroppedReadRun {
  std::vector<ReliableTransport::Completion> completions;
  std::vector<msg::Response> readback;
  std::uint64_t retries = 0;
};

DroppedReadRun run_with_a_response_dropped(const isa::Program& a,
                                           const isa::Program& b) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.window = 2;
  ReliableTransport transport(copro, tcfg);
  transport.call(isa::Assembler::assemble("PUT r1, #7"));

  DroppedReadRun run;
  transport.submit(a);
  transport.submit(b);
  std::size_t to_drop = msg::kLinkWordsPerResponse;
  for (int cycle = 0; cycle < 100'000 && run.completions.size() < 2;
       ++cycle) {
    // Steal arrived upstream words before the driver sees them: a forced
    // upstream drop of exactly one response frame.
    while (to_drop > 0 && sys.link().host_receive()) {
      --to_drop;
    }
    transport.service();
    while (auto c = transport.poll_completed()) {
      run.completions.push_back(std::move(*c));
    }
    sys.simulator().step();
  }
  EXPECT_EQ(to_drop, 0u) << "the response frame was never dropped";
  run.retries = transport.counters().get("transport.retries");
  run.readback = transport.call(isa::Assembler::assemble("GET r1\nGET r2"));
  return run;
}

/// Plain flights use the per-register write barrier: a write to the
/// register an earlier program's lost read covers waits for the retried
/// read, which therefore still returns the old value.
TEST(ReliableTransport, PlainFlightWriteWaitsForARetriedReadOfItsRegister) {
  const DroppedReadRun run =
      run_with_a_response_dropped(isa::Assembler::assemble("GET r1"),
                                  isa::Assembler::assemble("PUT r1, #42"));
  EXPECT_GE(run.retries, 1u);
  ASSERT_EQ(run.completions.size(), 2u);
  EXPECT_LT(run.completions[0].id, run.completions[1].id);  // A first
  ASSERT_EQ(run.completions[0].responses.size(), 1u);  // A, the read
  EXPECT_EQ(run.completions[0].responses[0].payload, 7u);
  EXPECT_TRUE(run.completions[1].responses.empty());  // B, the write
  ASSERT_EQ(run.readback.size(), 2u);
  EXPECT_EQ(run.readback[0].payload, 42u);
}

/// ...while a write to a register the lost read does not cover issues at
/// once: B completes (all its groups are on the wire) before A's retried
/// response lands, and neither value is disturbed.
TEST(ReliableTransport, PlainFlightWriteToAnotherRegisterOvertakesARetriedRead) {
  const DroppedReadRun run =
      run_with_a_response_dropped(isa::Assembler::assemble("GET r1"),
                                  isa::Assembler::assemble("PUT r2, #42"));
  EXPECT_GE(run.retries, 1u);
  ASSERT_EQ(run.completions.size(), 2u);
  EXPECT_TRUE(run.completions[0].responses.empty());  // B, the write
  ASSERT_EQ(run.completions[1].responses.size(), 1u);  // A, the read
  EXPECT_EQ(run.completions[1].responses[0].payload, 7u);
  EXPECT_GT(run.completions[0].id, run.completions[1].id);  // B after A
  ASSERT_EQ(run.readback.size(), 2u);
  EXPECT_EQ(run.readback[0].payload, 7u);
  EXPECT_EQ(run.readback[1].payload, 42u);
}

/// A program's one result is its completion: through the pipelined window,
/// every response of a 25-instruction program, in program order.
TEST(ReliableTransport, StreamedResponsesMatchTheCompletion) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  const isa::Program p = fpgafu::testing::random_program(small_rtm(), 55,
                                                         {.instructions = 25});
  const auto id = transport.submit(p);
  std::optional<ReliableTransport::Completion> done;
  copro.pump().run_until(
      [&] {
        transport.service();
        if (auto c = transport.poll_completed()) {
          done = std::move(*c);
        }
        return done.has_value() ? Wake::done() : transport.next_wake();
      },
      Deadline(sys.simulator(), 10'000'000), "completion test");

  EXPECT_EQ(done->id, id);
  EXPECT_EQ(done->responses, ReferenceModel(small_rtm()).run(p));
  EXPECT_EQ(transport.in_flight(), 0u);
}

/// The windowed retry machinery (gap detection, burst re-reads, probes)
/// still recovers to bit-exact results when several programs share the
/// lossy wire.
TEST(ReliableTransport, PipelinedWindowRecoversFromFaults) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  msg::FaultConfig f;
  f.seed = 97;
  f.up.drop_ppm = 40'000;
  f.up.corrupt_ppm = 40'000;
  f.up.duplicate_ppm = 40'000;
  cfg.link_faults = f;
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.window = 4;
  ReliableTransport transport(copro, tcfg);

  // The oracle: the same programs run sequentially over a clean link.
  top::SystemConfig clean_cfg;
  clean_cfg.rtm = small_rtm();
  top::System seq_sys(clean_cfg);
  Coprocessor seq_copro(seq_sys);
  ReliableTransport seq_transport(seq_copro);

  std::vector<isa::Program> programs;
  std::vector<std::vector<msg::Response>> expected;
  for (std::uint64_t seed = 61; seed <= 72; ++seed) {
    programs.push_back(fpgafu::testing::random_program(small_rtm(), seed,
                                                       {.instructions = 15}));
    expected.push_back(seq_transport.call(programs.back()));
  }
  std::vector<ReliableTransport::ProgramId> ids;
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  std::size_t next = 0;
  copro.pump().run_until(
      [&] {
        while (next < programs.size() && !transport.window_full()) {
          ids.push_back(transport.submit(programs[next++]));
        }
        transport.service();
        while (auto c = transport.poll_completed()) {
          got[c->id] = std::move(c->responses);
        }
        if (got.size() == programs.size()) {
          return Wake::done();
        }
        // A freed window slot takes the next program on the next cycle.
        return next < programs.size() && !transport.window_full()
                   ? Wake::at(sys.simulator().cycle() + 1)
                   : transport.next_wake();
      },
      Deadline(sys.simulator(), 100'000'000), "faulty window test");

  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(got[ids[i]], expected[i]) << "program " << i;
  }
  EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
  EXPECT_GT(transport.counters().get("transport.retries") +
                transport.counters().get("transport.dup_dropped") +
                transport.counters().get("transport.stale_dropped"),
            0u);
}

/// The decoder's wire sequence number is 16 bits and the transport mirrors
/// it.  Run more than 2^16 groups through a full window of 8, so the wire
/// seq wraps while groups are outstanding: outstanding entries match their
/// responses by wire seq alone, so a wrong wrap would mis-route or drop
/// responses.  Every completion must equal the reference model.
TEST(ReliableTransport, WireSequenceWrapsInsideAWindow) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.window = 8;
  ReliableTransport transport(copro, tcfg);

  // Sixteen self-contained PUT/GET/GETV programs of six groups each, over
  // rotating register pairs; each reads only what it wrote.
  constexpr std::size_t kKinds = 16;
  std::vector<isa::Program> kinds;
  std::vector<std::vector<msg::Response>> expected;
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::string a = "r";  // not "r" + ...: GCC 12 -Werror=restrict
    a += std::to_string(1 + 2 * (k % 5));
    std::string b = "r";
    b += std::to_string(2 + 2 * (k % 5));
    kinds.push_back(isa::Assembler::assemble(
        "PUT " + a + ", #" + std::to_string(1000 + k) + "\nPUT " + b +
        ", #" + std::to_string(2000 + k) + "\nGET " + a + "\nGETV " + a +
        ", 2\nPUT " + a + ", #" + std::to_string(3000 + k) + "\nGET " + a));
    expected.push_back(ReferenceModel(small_rtm()).run(kinds.back()));
  }
  std::vector<InstructionGroup> groups;
  split_groups_into(kinds[0], groups);
  const std::size_t groups_per_program = groups.size();
  ASSERT_EQ(groups_per_program, 6u);
  const std::size_t programs = (std::size_t{1} << 16) / groups_per_program + 64;

  std::map<ReliableTransport::ProgramId, std::size_t> kind_of;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t mismatches = 0;
  copro.pump().run_until(
      [&] {
        while (submitted < programs && !transport.window_full()) {
          kind_of[transport.submit(kinds[submitted % kKinds])] =
              submitted % kKinds;
          ++submitted;
        }
        transport.service();
        while (auto c = transport.poll_completed()) {
          const auto it = kind_of.find(c->id);
          if (it == kind_of.end() || c->responses != expected[it->second]) {
            ++mismatches;
          }
          if (it != kind_of.end()) {
            kind_of.erase(it);
          }
          ++completed;
        }
        if (completed == programs) {
          return Wake::done();
        }
        return submitted < programs && !transport.window_full()
                   ? Wake::at(sys.simulator().cycle() + 1)
                   : transport.next_wake();
      },
      Deadline(sys.simulator(), 100'000'000), "sequence wrap test");

  EXPECT_GT(programs * groups_per_program, std::size_t{1} << 16);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(kind_of.empty());
  EXPECT_EQ(transport.counters().get("transport.stale_dropped"), 0u);
  EXPECT_EQ(transport.counters().get("transport.retries"), 0u);
}

// -- Programs sharing one window ----------------------------------------------
//
// Several plain programs in one window: each is laid out and flown on its
// own (one program, one flight), and the per-register write barrier orders
// them on the wire.  The FrameLayout suite pins the per-program layout; the
// Coalescing suite pins what programs must get right when they share a
// window — empty and error-only neighbours, GETV bursts at a program
// boundary, conflicting writes, completion order, faults and cycle cost.

/// Sum of a layout's predicted responses.
std::size_t predicted_responses(const FrameLayout& frame) {
  std::size_t n = 0;
  for (const GroupPrediction& p : frame.predictions) {
    n += p.count;
  }
  return n;
}

/// An error-only program: a GET of an out-of-range register answers with
/// exactly one error response.
isa::Program error_only_program() {
  isa::Instruction bad;
  bad.function = isa::fc::kRtm;
  bad.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  bad.src1 = 100;  // >= data_regs
  isa::Program p;
  p.emit(bad);
  return p;
}

/// Submit `programs` as plain programs through the transport's window,
/// refilling it as programs complete, and pump until all have completed.
/// Returns each program's responses in submission order.
std::vector<std::vector<msg::Response>> run_window(
    top::System& sys, Coprocessor& copro, ReliableTransport& transport,
    const std::vector<isa::Program>& programs) {
  std::vector<ReliableTransport::ProgramId> ids;
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  std::size_t next = 0;
  copro.pump().run_until(
      [&] {
        while (next < programs.size() && !transport.window_full()) {
          ids.push_back(transport.submit(programs[next++]));
        }
        transport.service();
        while (auto c = transport.poll_completed()) {
          got[c->id] = std::move(c->responses);
        }
        if (got.size() == programs.size()) {
          return Wake::done();
        }
        // A freed window slot takes the next program on the next cycle.
        return next < programs.size() && !transport.window_full()
                   ? Wake::at(sys.simulator().cycle() + 1)
                   : transport.next_wake();
      },
      Deadline(sys.simulator(), 100'000'000), "shared window test");
  std::vector<std::vector<msg::Response>> out;
  for (const auto id : ids) {
    out.push_back(std::move(got[id]));
  }
  return out;
}

/// A transport whose window holds `window` programs at once.
TransportConfig window_of(std::size_t window) {
  TransportConfig tcfg;
  tcfg.window = window;
  return tcfg;
}

/// One recycled layout takes one program after another: each assign
/// replaces the groups and predictions, whose entries line up one for one
/// and whose groups cover the program's words exactly.
TEST(FrameLayout, MembersCoverConcatenatedGroupsExactly) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);

  const isa::Program a = isa::Assembler::assemble("PUT r1, #5\nGET r1");
  const isa::Program empty;  // zero groups, zero responses
  const isa::Program b = isa::Assembler::assemble("GETV r2, 3\nPUT r3, #7");

  FrameLayout frame;
  const auto lay_out = [&](const isa::Program& p) {
    frame.assign(p, sys.rtm().config(), sys.rtm().table());
    EXPECT_EQ(frame.words, p.words());
    ASSERT_EQ(frame.predictions.size(), frame.groups.size());
    std::size_t next_word = 0;
    for (const InstructionGroup& g : frame.groups) {
      EXPECT_EQ(g.first_word, next_word);
      EXPECT_GE(g.word_count, 1u);
      next_word += g.word_count;
    }
    EXPECT_EQ(next_word, frame.words.size());
  };

  lay_out(a);
  EXPECT_EQ(frame.groups.size(), 2u);
  EXPECT_EQ(predicted_responses(frame), 1u);  // PUT 0 + GET 1

  // An empty program leaves nothing of its predecessor behind.
  lay_out(empty);
  EXPECT_TRUE(frame.groups.empty());
  EXPECT_EQ(predicted_responses(frame), 0u);

  lay_out(b);
  ASSERT_EQ(frame.groups.size(), 2u);
  EXPECT_EQ(predicted_responses(frame), 3u);  // GETV burst of 3

  // Predictions line up with the groups: the GETV reads r2..r4, the PUT
  // writes r3 — the write-read conflict the write barrier must see.
  const GroupPrediction& getv = frame.predictions[0];
  const GroupPrediction& put = frame.predictions[1];
  EXPECT_TRUE(getv.data_reads.test(2));
  EXPECT_TRUE(getv.data_reads.test(3));
  EXPECT_TRUE(getv.data_reads.test(4));
  EXPECT_TRUE(put.data_writes.test(3));
  EXPECT_TRUE(put.writes_conflict_with_reads_of(getv));
}

/// A recycled layout's predicted response total equals what a fresh
/// reference machine produces for each program alone (counts are
/// state-free), faulting instructions included.
TEST(FrameLayout, PredictionsMatchReferenceCountsPerMember) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  FrameLayout frame;
  for (std::uint64_t seed = 301; seed <= 306; ++seed) {
    const isa::Program p = fpgafu::testing::random_program(
        small_rtm(), seed, {.instructions = 12, .include_errors = true});
    frame.assign(p, sys.rtm().config(), sys.rtm().table());
    std::vector<InstructionGroup> groups;
    split_groups_into(p, groups);
    EXPECT_EQ(frame.groups.size(), groups.size()) << "seed " << seed;
    EXPECT_EQ(predicted_responses(frame),
              ReferenceModel(small_rtm()).run(p).size())
        << "seed " << seed;
  }
}

/// Empty and error-only programs share the window with ordinary ones: a
/// zero-group program completes at once, and an error must not
/// desynchronise its window neighbours.  Every completion equals what
/// sequential call()s produce.
TEST(Coalescing, FrameMatchesSequentialCallsIncludingEmptyAndErrorMembers) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro, window_of(4));

  top::System seq_sys(cfg);
  Coprocessor seq_copro(seq_sys);
  ReliableTransport seq_transport(seq_copro);

  std::vector<isa::Program> programs;
  programs.push_back(isa::Assembler::assemble("PUT r1, #11\nGET r1"));
  programs.push_back(isa::Program{});  // empty program mid-window
  programs.push_back(error_only_program());
  programs.push_back(
      isa::Assembler::assemble("PUT r2, #7\nADD r3, r1, r2\nGET r3"));

  std::vector<std::vector<msg::Response>> expected;
  for (const isa::Program& p : programs) {
    expected.push_back(seq_transport.call(p));
  }
  ASSERT_TRUE(expected[1].empty());
  ASSERT_EQ(expected[2].size(), 1u);
  ASSERT_EQ(expected[2][0].type, msg::Response::Type::kError);

  const auto got = run_window(sys, copro, transport, programs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "program " << i;
  }
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
}

/// Program A ends in a GETV burst and program B, in the same window, at
/// once writes into the burst's source range: the per-register barrier
/// must hold B's PUT until A's reads retire, and the burst and B's
/// response must land in their own completions.
TEST(Coalescing, GetvBurstAtMemberBoundaryStaysAligned) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro, window_of(2));

  top::System seq_sys(cfg);
  Coprocessor seq_copro(seq_sys);
  ReliableTransport seq_transport(seq_copro);

  std::vector<isa::Program> programs;
  programs.push_back(isa::Assembler::assemble(R"(
    PUTV r2, 3
    .word #10
    .word #20
    .word #30
    GETV r2, 3
  )"));
  programs.push_back(isa::Assembler::assemble("PUT r3, #99\nGET r3"));

  std::vector<std::vector<msg::Response>> expected;
  for (const isa::Program& p : programs) {
    expected.push_back(seq_transport.call(p));
  }
  const auto got = run_window(sys, copro, transport, programs);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], expected[0]);
  EXPECT_EQ(got[1], expected[1]);
  ASSERT_EQ(got[0].size(), 3u);
  EXPECT_EQ(got[0][1].payload, 20u);  // A read r3 before B overwrote it
  ASSERT_EQ(got[1].size(), 1u);
  EXPECT_EQ(got[1][0].payload, 99u);  // B's write really landed after A read
}

/// A read, a conflicting write and a read again of the SAME register as
/// three programs of one window: the first read sees the old value, the
/// second the new one (the barrier only reorders register-disjoint
/// traffic).
TEST(Coalescing, IntraFrameWriteOrderIsPreservedOnConflicts) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro, window_of(3));

  std::vector<isa::Program> programs;
  programs.push_back(isa::Assembler::assemble("GET r1"));       // old r1
  programs.push_back(isa::Assembler::assemble("PUT r1, #42"));  // conflicts
  programs.push_back(isa::Assembler::assemble("GET r1"));       // reads 42

  const auto got = run_window(sys, copro, transport, programs);
  ASSERT_EQ(got.size(), 3u);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0].payload, 0u);  // pre-write value
  EXPECT_TRUE(got[1].empty());       // pure write: response-free completion
  ASSERT_EQ(got[2].size(), 1u);
  EXPECT_EQ(got[2][0].payload, 42u);
}

/// A program reading its neighbour's register shares the window with it:
/// each of the three completes with exactly its own responses.
TEST(Coalescing, StreamedMemberInterleavesWithItsNeighbours) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro, window_of(3));

  const isa::Program a = isa::Assembler::assemble("PUT r1, #3\nGET r1");
  const isa::Program b =
      isa::Assembler::assemble("PUT r2, #4\nGET r2\nGETV r1, 2");
  const isa::Program c = isa::Assembler::assemble("PUT r3, #5\nGET r3");
  const std::vector<ReliableTransport::ProgramId> ids = {
      transport.submit(a), transport.submit(b), transport.submit(c)};
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  copro.pump().run_until(
      [&] {
        transport.service();
        while (auto comp = transport.poll_completed()) {
          got[comp->id] = std::move(comp->responses);
        }
        return got.size() == ids.size() ? Wake::done() : transport.next_wake();
      },
      Deadline(sys.simulator(), 10'000'000), "shared window test");
  ASSERT_EQ(got[ids[1]].size(), 3u);
  EXPECT_EQ(got[ids[1]][0].payload, 4u);
  EXPECT_EQ(got[ids[1]][1].payload, 3u);  // a's write landed before b's GETV
  EXPECT_EQ(got[ids[1]][2].payload, 4u);
  ASSERT_EQ(got[ids[0]].size(), 1u);
  EXPECT_EQ(got[ids[0]][0].payload, 3u);
  ASSERT_EQ(got[ids[2]].size(), 1u);
  EXPECT_EQ(got[ids[2]][0].payload, 5u);
}

/// The completion order of a fixed mixed window, one {batch} per service()
/// call that completed anything (programs numbered in submission order):
/// a pure write and an empty program complete together on the first
/// service, in window order, ahead of the read submitted before them.  Once
/// that read's responses land, the barrier-held program 5 and the write 6
/// behind it go on the wire; 6 completes at once, ahead of the read 4 still
/// in flight and of 5.  Each program's responses equal its own reference
/// run.
TEST(Coalescing, MixedWindowCompletesInAFixedOrder) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro, window_of(6));

  const std::vector<isa::Program> programs = {
      isa::Assembler::assemble("GETV r1, 4"),          // long read
      isa::Assembler::assemble("PUT r6, #9"),          // pure write
      isa::Program{},                                  // empty
      isa::Assembler::assemble("GET r5"),              // read
      isa::Assembler::assemble("PUT r1, #7\nGET r1"),  // held at the barrier
      isa::Assembler::assemble("PUT r7, #1"),          // queued behind it
  };
  std::vector<ReliableTransport::ProgramId> ids;
  for (const isa::Program& p : programs) {
    ids.push_back(transport.submit(p));
  }
  std::vector<std::vector<ReliableTransport::ProgramId>> batches;
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  copro.pump().run_until(
      [&] {
        transport.service();
        std::vector<ReliableTransport::ProgramId> batch;
        while (auto c = transport.poll_completed()) {
          batch.push_back(c->id);
          got[c->id] = std::move(c->responses);
        }
        if (!batch.empty()) {
          batches.push_back(std::move(batch));
        }
        return got.size() == ids.size() ? Wake::done() : transport.next_wake();
      },
      Deadline(sys.simulator(), 10'000'000), "mixed window order test");

  std::string order;
  for (const auto& batch : batches) {
    order += "{";
    for (const auto id : batch) {
      order += std::to_string(id - ids[0] + 1);
      order += id == batch.back() ? "" : ",";
    }
    order += "}";
  }
  EXPECT_EQ(order, "{2,3}{1}{6}{4}{5}");
  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(got[ids[i]], ReferenceModel(small_rtm()).run(programs[i]))
        << "program " << i;
  }
}

/// Programs of one window chain through the SAME registers over a lossy
/// upstream link, so retried reads are only correct if the barrier really
/// held the conflicting writes of their window neighbours.
TEST(Coalescing, FaultyLinkRecoversBitExactAcrossConflictingMembers) {
  std::uint64_t total_retries = 0;
  for (std::uint64_t seed = 501; seed <= 505; ++seed) {
    top::SystemConfig cfg;
    cfg.rtm = small_rtm();
    msg::FaultConfig f;
    f.seed = seed;
    f.up.drop_ppm = 50'000;
    f.up.corrupt_ppm = 50'000;
    f.up.duplicate_ppm = 50'000;
    cfg.link_faults = f;
    top::System sys(cfg);
    Coprocessor copro(sys);
    ReliableTransport transport(copro, window_of(6));

    top::SystemConfig clean_cfg;
    clean_cfg.rtm = small_rtm();
    top::System seq_sys(clean_cfg);
    Coprocessor seq_copro(seq_sys);
    ReliableTransport seq_transport(seq_copro);

    std::vector<isa::Program> programs;
    for (int i = 0; i < 6; ++i) {
      programs.push_back(isa::Assembler::assemble(
          "PUT r1, #" + std::to_string(10 + i) +
          "\nADD r2, r1, r1\nGET r2\nGET r1"));
    }
    std::vector<std::vector<msg::Response>> expected;
    for (const isa::Program& p : programs) {
      expected.push_back(seq_transport.call(p));
    }
    const auto got = run_window(sys, copro, transport, programs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " program " << i;
    }
    EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
    total_retries += transport.counters().get("transport.retries") +
                     transport.counters().get("transport.dup_dropped") +
                     transport.counters().get("transport.stale_dropped");
  }
  EXPECT_GT(total_retries, 0u);  // the fault machinery actually fired
}

/// Twelve register-disjoint write+compute+read programs, once through a
/// window of 16 and once one at a time.  The per-register barrier finds no
/// conflicts, so the window streams them back to back: the responses are
/// identical and the window needs well under the sequential cycle count.
TEST(Coalescing, DisjointMembersUncoalescedWindowMatchesTheFrameOnCycles) {
  top::SystemConfig cfg;  // default RTM: 32 data registers
  std::vector<isa::Program> programs;
  for (int i = 0; i < 12; ++i) {
    std::string a = "r";  // not "r" + ...: GCC 12 -Werror=restrict
    a += std::to_string(1 + 2 * i);
    std::string b = "r";
    b += std::to_string(2 + 2 * i);
    programs.push_back(isa::Assembler::assemble(
        "PUT " + a + ", #" + std::to_string(100 + i) + "\nADD " + b + ", " +
        a + ", " + a + "\nGET " + b));
  }
  const auto run = [&](std::size_t window, std::uint64_t& cycles) {
    top::System sys(cfg);
    Coprocessor copro(sys);
    ReliableTransport transport(copro, window_of(window));
    const std::uint64_t start = sys.simulator().cycle();
    auto got = run_window(sys, copro, transport, programs);
    cycles = sys.simulator().cycle() - start;
    return got;
  };
  std::uint64_t windowed_cycles = 0;
  std::uint64_t sequential_cycles = 0;
  const auto windowed = run(16, windowed_cycles);
  const auto sequential = run(1, sequential_cycles);

  ASSERT_EQ(windowed.size(), programs.size());
  ASSERT_EQ(sequential.size(), programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(windowed[i], sequential[i]) << "program " << i;
    ASSERT_EQ(windowed[i].size(), 1u);
    EXPECT_EQ(windowed[i][0].payload, 2u * (100 + i));
  }
  EXPECT_LE(windowed_cycles * 10, sequential_cycles * 6)
      << "windowed " << windowed_cycles << " vs sequential "
      << sequential_cycles;
}

/// A window of one holds one program — an empty program too — and a full
/// window refuses the next submit with a typed error instead of queueing
/// it.
TEST(Coalescing, RejectsEmptyAndOversubmission) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro, window_of(1));
  const isa::Program p = isa::Assembler::assemble("PUT r1, #1");

  const auto empty_id = transport.submit(isa::Program{});
  EXPECT_TRUE(transport.window_full());
  EXPECT_THROW(transport.submit(p), SimError);
  transport.service();  // a zero-group program completes at once
  const auto done = transport.poll_completed();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->id, empty_id);
  EXPECT_TRUE(done->responses.empty());
  EXPECT_FALSE(transport.window_full());

  transport.submit(p);
  EXPECT_TRUE(transport.window_full());
  EXPECT_THROW(transport.submit(p), SimError);
  transport.abort_in_flight();
  EXPECT_FALSE(transport.window_full());
}

// -- Tail probes and partial burst re-reads -----------------------------------

/// Calls `program` `calls` times over one transport and one System whose
/// upstream link drops words at `drop_ppm` (seeded; 0 = a clean link).
/// The program must be self-contained, so every call answers exactly as
/// host::ReferenceModel does from zeroed registers.
struct LossyCalls {
  std::vector<std::uint64_t> call_cycles;
  std::size_t mismatches = 0;
  std::uint64_t probes = 0;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
};

LossyCalls run_lossy_calls(const isa::Program& program, std::uint64_t seed,
                           std::uint32_t drop_ppm, unsigned calls) {
  top::SystemConfig cfg;
  if (drop_ppm > 0) {
    msg::FaultConfig f;
    f.seed = seed;
    f.up.drop_ppm = drop_ppm;
    cfg.link_faults = f;
  }
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  const auto expected = ReferenceModel(cfg.rtm).run(program);
  LossyCalls run;
  for (unsigned i = 0; i < calls; ++i) {
    const std::uint64_t c0 = sys.simulator().cycle();
    if (transport.call(program) != expected) {
      ++run.mismatches;
    }
    run.call_cycles.push_back(sys.simulator().cycle() - c0);
  }
  run.probes = transport.counters().get("transport.probes");
  run.retries = transport.counters().get("transport.retries");
  run.dropped = sys.link().fault_counters().get("link.up_dropped");
  return run;
}

/// A 16-word echo: PUTV into r8..r23, GETV them back.
isa::Program getv16_program() {
  std::vector<isa::Word> values;
  for (isa::Word i = 0; i < 16; ++i) {
    values.push_back(0x5eed0000 + 37 * i);
  }
  isa::Program p;
  p.emit_put_vec(8, values);
  p.emit_get_vec(8, 16);
  return p;
}

/// A lost response with nothing behind it is recovered by a tail probe
/// within a few response latencies.  Each seed is the first (counting from
/// 1) on which a transport without tail probes lost a response with
/// nothing behind it over these eight calls, found by a deterministic
/// search; the first call's response survives, so the latency estimate
/// exists by the time a loss comes.
TEST(TailProbe, RecoversATailLossWithoutATimeout) {
  struct Case {
    const char* name;
    isa::Program program;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {"single GET", isa::Assembler::assemble("PUT r1, #77\nGET r1"), 2},
      {"16-word GETV", getv16_program(), 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const LossyCalls clean = run_lossy_calls(c.program, 0, 0, 8);
    EXPECT_EQ(clean.probes, 0u);
    const std::uint64_t round_trip = clean.call_cycles.front();
    const LossyCalls lossy = run_lossy_calls(c.program, c.seed, 30'000, 8);
    EXPECT_EQ(lossy.mismatches, 0u);
    EXPECT_GT(lossy.dropped, 0u);
    EXPECT_GE(lossy.retries, 1u);
    EXPECT_GE(lossy.probes, 1u);
    for (const std::uint64_t cycles : lossy.call_cycles) {
      EXPECT_LE(cycles, 10 * round_trip);
    }
  }
}

/// Before its first latency sample a transport times its probe from a
/// host-side estimate of the response latency, so even a fresh transport's
/// first exchange recovers a tail loss within a few link round trips.
/// Seed 6 drops the first call's GET response (3 % per upstream word).
TEST(TailProbe, RecoversATailLossOnAFreshTransport) {
  const isa::Program get = isa::Assembler::assemble("PUT r1, #77\nGET r1");
  const LossyCalls lossy = run_lossy_calls(get, 6, 30'000, 1);
  EXPECT_EQ(lossy.mismatches, 0u);
  EXPECT_GT(lossy.dropped, 0u);
  EXPECT_GE(lossy.probes, 1u);
  EXPECT_GE(lossy.retries, 1u);
  EXPECT_LT(lossy.call_cycles.front(), 200u);
}

/// Warm the transport's latency estimate up with quick round trips.
void warm_up(ReliableTransport& transport) {
  for (int i = 0; i < 4; ++i) {
    transport.call(isa::Assembler::assemble("PUT r1, #3\nGET r1"));
  }
}

/// A slow unit holds a response back legitimately.  A probe sent meanwhile
/// queues behind it, so it never turns the wait into a retry.
TEST(TailProbe, SlowFsmDivideRetriesNothing) {
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;  // the FSM divider iterates one bit per clock
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  warm_up(transport);

  isa::Program p = isa::Assembler::assemble("PUT r1, #1000\nPUT r2, #7");
  isa::Instruction div;
  div.function = isa::fc::kMulDiv;
  div.variety = isa::muldiv::variety(isa::muldiv::Op::kDiv);
  div.dst1 = 3;
  div.src1 = 1;
  div.src2 = 2;
  p.emit(div);
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 3;
  p.emit(get);
  const std::uint64_t c0 = sys.simulator().cycle();
  const auto got = transport.call(p);
  EXPECT_GT(sys.simulator().cycle() - c0, 64u);
  EXPECT_EQ(got, ReferenceModel(cfg.rtm).run(p));
  const std::uint64_t probes = transport.counters().get("transport.probes");
  EXPECT_GE(probes, 1u);
  EXPECT_EQ(transport.counters().get("transport.retries"), 0u);
  // Every probe answered after the GET emptied the FIFO (or after a later
  // probe superseded it), so each answer was dropped as stale.
  EXPECT_EQ(transport.counters().get("transport.stale_dropped"), probes);
}

/// One `kStart; kReadC; GET` GEMM sweep of `dims`^3 MACs through call() on
/// a clean link, after warm_up().
struct GemmSweep {
  std::uint64_t cycles = 0;
  std::vector<msg::Response> got;
  bool threw = false;
  std::uint64_t probes = 0;
  std::uint64_t retries = 0;
  std::uint64_t stale_dropped = 0;
};

GemmSweep run_gemm_sweep(std::size_t dims) {
  top::System sys(top::SystemConfig{});
  constexpr isa::FunctionCode kGemm = isa::fc::kUserBase;
  fu::GemmUnit gemm(sys.simulator(), "gemm", dims, dims, dims,
                    /*pipeline_depth=*/4, /*fifo_capacity=*/16, 64);
  sys.attach(kGemm, gemm);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  warm_up(transport);

  const auto gemm_op = [&](isa::VarietyCode v, isa::RegNum dst,
                           isa::RegNum src1) {
    isa::Instruction inst;
    inst.function = kGemm;
    inst.variety = v;
    inst.dst1 = dst;
    inst.src1 = src1;
    return inst;
  };
  isa::Program setup;
  setup.emit_put(1, fu::GemmUnit::config_word(dims, dims, dims));
  setup.emit(gemm_op(fu::GemmUnit::kConfig, 2, 1));
  setup.emit_put(1, 0);  // the address of C[0], read back below
  transport.call(setup);

  // The sweep holds the MAC pipeline for over dims^3 cycles; the read of
  // C and the GET behind it wait for it.
  isa::Program p;
  p.emit(gemm_op(fu::GemmUnit::kStart, 2, 0));
  p.emit(gemm_op(fu::GemmUnit::kReadC, 8, 1));
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 8;
  p.emit(get);
  GemmSweep run;
  const std::uint64_t c0 = sys.simulator().cycle();
  try {
    run.got = transport.call(p);
  } catch (const SimError&) {
    run.threw = true;
  }
  run.cycles = sys.simulator().cycle() - c0;
  run.probes = transport.counters().get("transport.probes");
  run.retries = transport.counters().get("transport.retries");
  run.stale_dropped = transport.counters().get("transport.stale_dropped");
  return run;
}

TEST(TailProbe, GemmSweepRetriesNothing) {
  const GemmSweep run = run_gemm_sweep(8);
  EXPECT_GT(run.cycles, 512u);
  ASSERT_EQ(run.got.size(), 1u);
  EXPECT_EQ(run.got[0].type, msg::Response::Type::kData);
  EXPECT_EQ(run.got[0].payload, 0u);  // nothing was loaded: C stays zero
  EXPECT_GE(run.probes, 1u);
  EXPECT_EQ(run.retries, 0u);
  EXPECT_EQ(run.stale_dropped, run.probes);
}

/// A sweep that outlasts any fixed response deadline still retries
/// nothing: each probe's answer queues behind it, and re-probing at
/// doubling intervals costs O(log) probe words, not a re-sent group.
TEST(TailProbe, LongGemmSweepsRetryNothing) {
  for (const std::size_t dims : {16u, 40u}) {
    SCOPED_TRACE("dims " + std::to_string(dims));
    const GemmSweep run = run_gemm_sweep(dims);
    EXPECT_FALSE(run.threw);
    EXPECT_GT(run.cycles, dims * dims * dims);
    ASSERT_EQ(run.got.size(), 1u);
    EXPECT_EQ(run.got[0].type, msg::Response::Type::kData);
    EXPECT_EQ(run.retries, 0u);
    EXPECT_EQ(run.stale_dropped, run.probes);
  }
}

/// One GETV read and the program that sets up what it answers: `fill`
/// ends with the same read, so its reference responses are the read's.
struct BurstRead {
  rtm::RtmConfig rtm;
  isa::Program fill;
  isa::Program read;
};

/// r8..r23 filled with PUTV and read back with one 16-word GETV.
BurstRead getv16_read() {
  BurstRead b;
  b.fill = getv16_program();
  b.read.emit_get_vec(8, 16);
  return b;
}

/// What each direction of the link carried for one read whose upstream
/// frames (counted in arrival order from 0) were swallowed before the
/// driver saw them.
struct LostFrames {
  std::vector<msg::Response> got;
  std::vector<msg::Response> expected;
  std::size_t stolen_words = 0;
  std::uint64_t words_down = 0;
  std::uint64_t words_up = 0;
  std::uint64_t probes = 0;
  std::uint64_t retries = 0;
  std::uint64_t dup_dropped = 0;
  std::uint64_t stale_dropped = 0;
};

/// Runs `b.read` on a transport with a latency estimate, swallowing the
/// upstream frames whose arrival indices are in `lost` (the read's own
/// sub-responses, its re-reads' and any probe's answer alike).
LostFrames run_with_frames_lost(const std::vector<std::size_t>& lost,
                                const BurstRead& b = getv16_read()) {
  top::SystemConfig cfg;
  cfg.rtm = b.rtm;
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  warm_up(transport);
  transport.call(b.fill);

  LostFrames run;
  // As a one-group program the read carries sequence number 0.
  run.expected = ReferenceModel(b.rtm).run(b.fill);
  for (msg::Response& r : run.expected) {
    r.seq = 0;
  }
  const std::uint64_t down0 = sys.link().words_down();
  const std::uint64_t up0 = sys.link().words_up();
  const std::uint64_t probes0 = transport.counters().get("transport.probes");
  const std::uint64_t stale0 =
      transport.counters().get("transport.stale_dropped");
  transport.submit(b.read);
  // One link word arrives per cycle, and the driver takes whatever has
  // arrived on every service, so words are counted (and lost frames
  // taken) as they show up.
  const auto swallowed = [&](std::size_t word) {
    return std::find(lost.begin(), lost.end(),
                     word / msg::kLinkWordsPerResponse) != lost.end();
  };
  std::size_t arrived = 0;
  std::optional<ReliableTransport::Completion> done;
  for (int cycle = 0; cycle < 100'000 && !done; ++cycle) {
    while (sys.link().host_available() > 0 && swallowed(arrived)) {
      sys.link().host_receive();
      ++arrived;
      ++run.stolen_words;
    }
    arrived += sys.link().host_available();
    transport.service();
    done = transport.poll_completed();
    sys.simulator().step();
  }
  if (done) {
    run.got = std::move(done->responses);
  }
  copro.pump().run_until(
      [&] { return sys.idle() ? Wake::done() : Wake::on_step(); },
                         Deadline(sys.simulator(), 10'000), "drain");
  run.words_down = sys.link().words_down() - down0;
  run.words_up = sys.link().words_up() - up0;
  run.probes = transport.counters().get("transport.probes") - probes0;
  run.retries = transport.counters().get("transport.retries");
  run.dup_dropped = transport.counters().get("transport.dup_dropped");
  run.stale_dropped =
      transport.counters().get("transport.stale_dropped") - stale0;
  return run;
}

/// A GETV that lost sub-response k re-reads only sub-response k, under a
/// fresh sequence number, keeps every sub-response that arrived after the
/// gap, and still returns every `burst` index as the reference model does.
/// k = 15 is a tail loss (the probe finds it); the others are intra-burst
/// gaps, re-read the moment the next sub-response shows them.
TEST(PartialBurst, RetryReReadsOnlyTheMissingTail) {
  for (const std::size_t lost : {0u, 1u, 7u, 15u}) {
    SCOPED_TRACE("lost sub-response " + std::to_string(lost));
    const LostFrames run = run_with_frames_lost({lost});
    ASSERT_EQ(run.stolen_words, msg::kLinkWordsPerResponse);
    EXPECT_EQ(run.got, run.expected);
    EXPECT_EQ(run.retries, 1u);
    EXPECT_EQ(run.dup_dropped, 0u);
    EXPECT_EQ(run.stale_dropped, 0u);
    EXPECT_EQ(run.probes, lost == 15 ? 1u : 0u);
    // Down: the GETV, its one-word retry and any probe, 2 link words each.
    EXPECT_EQ(run.words_down, 2 * (2 + run.probes));
    // Up: 16 frames, the one re-read frame and any probe's answer.
    EXPECT_EQ(run.words_up,
              msg::kLinkWordsPerResponse * (16 + 1 + run.probes));
  }
}

/// Two separated holes in one burst are re-read as two 1-frame GETVs, each
/// sent when the sub-response behind its hole arrives.
TEST(PartialBurst, SeparatedHolesAreReReadOneFrameEach) {
  const LostFrames run = run_with_frames_lost({3, 9});
  ASSERT_EQ(run.stolen_words, 2 * msg::kLinkWordsPerResponse);
  EXPECT_EQ(run.got, run.expected);
  EXPECT_EQ(run.retries, 2u);
  EXPECT_EQ(run.probes, 0u);
  EXPECT_EQ(run.dup_dropped, 0u);
  EXPECT_EQ(run.stale_dropped, 0u);
  EXPECT_EQ(run.words_down, 2 * 3u);
  EXPECT_EQ(run.words_up, msg::kLinkWordsPerResponse * (16 + 2));
}

/// A hole re-read that loses its own frame (arrival 16, behind the
/// original burst) is a tail loss: the probe finds it and the same one
/// sub-response is re-read again.
TEST(PartialBurst, HoleReReadThatLosesItsOwnFrameIsReReadAgain) {
  const LostFrames run = run_with_frames_lost({5, 16});
  ASSERT_EQ(run.stolen_words, 2 * msg::kLinkWordsPerResponse);
  EXPECT_EQ(run.got, run.expected);
  EXPECT_EQ(run.retries, 2u);
  EXPECT_EQ(run.probes, 1u);
  EXPECT_EQ(run.dup_dropped, 0u);
  EXPECT_EQ(run.words_down, 2 * (3 + run.probes));
  EXPECT_EQ(run.words_up,
            msg::kLinkWordsPerResponse * (16 + 2 + run.probes));
}

/// The attempt that skipped a hole loses its own last frame too.  The hole
/// re-read's answer (arrival 16) shows that loss, and the skipping attempt
/// re-reads only its remaining range, sub-response 15, not the whole tail
/// from the hole on.
TEST(PartialBurst, SkippingAttemptReReadsOnlyItsRemainingRange) {
  const LostFrames run = run_with_frames_lost({4, 15});
  ASSERT_EQ(run.stolen_words, 2 * msg::kLinkWordsPerResponse);
  EXPECT_EQ(run.got, run.expected);
  EXPECT_EQ(run.retries, 2u);
  EXPECT_EQ(run.probes, 0u);
  EXPECT_EQ(run.dup_dropped, 0u);
  EXPECT_EQ(run.stale_dropped, 0u);
  EXPECT_EQ(run.words_down, 2 * 3u);
  EXPECT_EQ(run.words_up, msg::kLinkWordsPerResponse * (16 + 2));
}

/// A hole whose base register does not fit the 8-bit field (r248 + 9) is
/// re-read by sending the whole GETV again.  The nine frames ahead of the
/// hole, already kept, come back as duplicates of the hole's attempt and
/// are dropped (dup_dropped); the six behind it still cross the link after
/// the read completed.  When that re-send loses the hole's frame too
/// (arrival 16 + 9), the six behind it are duplicates as well, and the
/// probe's retry sends the whole GETV a third time.
TEST(PartialBurst, DuplicatesOfKeptFramesAreDropped) {
  BurstRead b;
  b.rtm.data_regs = 256;
  std::vector<isa::Word> values;
  for (isa::Word i = 0; i < 8; ++i) {
    values.push_back(0xd0b1e000 + 11 * i);
  }
  // r248..r255 answer data, the eight sub-reads past r255 answer errors.
  b.fill.emit_put_vec(248, values);
  b.fill.emit_get_vec(248, 16);
  b.read.emit_get_vec(248, 16);
  {
    const LostFrames run = run_with_frames_lost({9}, b);
    ASSERT_EQ(run.stolen_words, msg::kLinkWordsPerResponse);
    EXPECT_EQ(run.got, run.expected);
    EXPECT_EQ(run.retries, 1u);
    EXPECT_EQ(run.dup_dropped, 9u);
    EXPECT_EQ(run.words_up, msg::kLinkWordsPerResponse * (16 + 16));
  }
  {
    const LostFrames run = run_with_frames_lost({9, 16 + 9}, b);
    ASSERT_EQ(run.stolen_words, 2 * msg::kLinkWordsPerResponse);
    EXPECT_EQ(run.got, run.expected);
    EXPECT_EQ(run.retries, 2u);
    EXPECT_EQ(run.probes, 1u);
    EXPECT_EQ(run.dup_dropped, 9u + 6u + 9u);
    EXPECT_EQ(run.words_up,
              msg::kLinkWordsPerResponse * (3 * 16 + run.probes));
  }
}

/// A dead link (after a latency estimate exists): the front entry is
/// probed at PTO, then after 2*PTO, 4*PTO and so on, so the probe count
/// stays logarithmic in the budget; the watchdog gives up at exactly the
/// budget, and nothing is re-sent.
TEST(TailProbe, DeadLinkProbesStayUnderTheCapPerAttempt) {
  top::System sys(top::SystemConfig{});
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  warm_up(transport);

  constexpr std::uint64_t kBudget = 50'000;
  const std::uint64_t c0 = sys.simulator().cycle();
  transport.submit(isa::Assembler::assemble("GET r1"), kBudget);
  std::vector<std::uint64_t> probe_cycles;
  std::uint64_t threw_at = 0;
  for (int cycle = 0; cycle < 100'000 && threw_at == 0; ++cycle) {
    while (sys.link().host_receive()) {
      // the link died: every upstream word is lost from now on
    }
    try {
      transport.service();
    } catch (const SimError&) {
      threw_at = sys.simulator().cycle();
    }
    if (transport.counters().get("transport.probes") > probe_cycles.size()) {
      probe_cycles.push_back(sys.simulator().cycle());
    }
    sys.simulator().step();
  }
  ASSERT_EQ(threw_at, c0 + kBudget);
  ASSERT_GE(probe_cycles.size(), 3u);
  // The GET went out at c0, so the first wait is PTO itself.
  const std::uint64_t pto = probe_cycles[0] - c0;
  EXPECT_EQ(probe_cycles[1] - probe_cycles[0], 2 * pto);
  for (std::size_t i = 2; i < probe_cycles.size(); ++i) {
    EXPECT_EQ(probe_cycles[i] - probe_cycles[i - 1],
              2 * (probe_cycles[i - 1] - probe_cycles[i - 2]));
  }
  std::size_t log2_budget_over_pto = 0;
  while ((pto << (log2_budget_over_pto + 1)) <= kBudget) {
    ++log2_budget_over_pto;
  }
  EXPECT_LE(probe_cycles.size(), log2_budget_over_pto + 2);
  transport.abort_in_flight();
  EXPECT_EQ(transport.counters().get("transport.retries"), 0u);
  EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
}

/// A dead link on a fresh transport (no latency sample yet): the first
/// probe waits the host-side estimate, and every re-probe doubles the wait
/// before it, starting from that estimate rather than from the PTO floor.
TEST(TailProbe, FreshTransportReProbesDoubleFromTheFirstWait) {
  top::System sys(top::SystemConfig{});
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  constexpr std::uint64_t kBudget = 200'000;
  const std::uint64_t c0 = sys.simulator().cycle();
  transport.submit(isa::Assembler::assemble("GET r1"), kBudget);
  std::vector<std::uint64_t> sent = {c0};  // the GET, then each probe
  bool threw = false;
  for (int cycle = 0; cycle < 300'000 && !threw; ++cycle) {
    while (sys.link().host_receive()) {
      // the link is dead: every upstream word is lost
    }
    try {
      transport.service();
    } catch (const SimError&) {
      threw = true;
    }
    if (transport.counters().get("transport.probes") + 1 > sent.size()) {
      sent.push_back(sys.simulator().cycle());
    }
    sys.simulator().step();
  }
  ASSERT_TRUE(threw);
  ASSERT_GE(sent.size(), 4u);
  for (std::size_t i = 2; i < sent.size(); ++i) {
    EXPECT_GE(sent[i] - sent[i - 1], 2 * (sent[i - 1] - sent[i - 2]))
        << "probe " << i - 1;
  }
  transport.abort_in_flight();
  EXPECT_EQ(transport.counters().get("transport.retries"), 0u);
}

/// Regression for the frame-state reset hole: a system reset (or watchdog
/// abort) used to leave partially deframed link words in the driver, so the
/// next exchange reassembled responses shifted by the leftover words.
TEST(Coprocessor, ResetMidFrameDiscardsPartialFrame) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  cfg.link_up = {1, 16};  // response words trickle out 16 cycles apart
  top::System sys(cfg);
  Coprocessor copro(sys);

  copro.write_reg(3, 42);
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 3;
  copro.submit_word(get.encode());
  // Let exactly part of the 4-word response frame reach the driver.
  sys.simulator().run_until([&] { return sys.link().host_available() == 2; },
                            100000);
  EXPECT_FALSE(copro.poll().has_value());  // 2 words now buffered host-side

  sys.simulator().reset();
  sys.rtm().clear_state();

  // The driver must notice the reset and discard the torn frame; the next
  // exchange must parse cleanly.
  copro.write_reg(5, 77);
  EXPECT_EQ(copro.read_reg(5), 77u);
}

/// A watchdog timeout mid-call leaves an unknown amount of a frame
/// consumed; the driver clears its window so later exchanges stay aligned.
TEST(Coprocessor, WatchdogMidCallRealignsFraming) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  cfg.link_up = {1, 40};  // slow enough that a tight deadline splits a frame
  top::System sys(cfg);
  Coprocessor copro(sys);

  copro.write_reg(2, 9);
  isa::Program p;
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 2;
  p.emit(get);
  EXPECT_THROW(copro.call(p, /*max_cycles=*/60), SimError);

  // The remaining words of the aborted frame still arrive and mix with the
  // next response's frame; the CRC window must slide past them.
  const isa::Word v = copro.read_reg(2);
  EXPECT_EQ(v, 9u);
}

}  // namespace
}  // namespace fpgafu::host

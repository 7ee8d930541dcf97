#include "host/reliable_transport.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
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
    std::size_t predicted = 0;
    for (const InstructionGroup& g : split_groups(p)) {
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
    EXPECT_EQ(transport.counters().get("transport.timeouts"), 0u);
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
    TransportConfig tcfg;
    tcfg.response_timeout = 500;
    ReliableTransport transport(copro, tcfg);

    const isa::Program p = fpgafu::testing::random_program(
        small_rtm(), seed, {.instructions = 25});
    const auto got = transport.call(p);
    const auto expected = ReferenceModel(small_rtm()).run(p);
    EXPECT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
    total_faults += sys.faulty_link()->fault_counters().get("link.up_dropped") +
                    sys.faulty_link()->fault_counters().get("link.up_corrupted");
    total_retries += transport.counters().get("transport.retries");
  }
  // At these rates faults certainly occurred and were recovered from.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(total_retries, 0u);
}

TEST(ReliableTransport, GivesUpAfterMaxAttempts) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  msg::FaultConfig f;
  f.up.drop_ppm = 1'000'000;  // the FPGA's answers never get through
  cfg.link_faults = f;
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.response_timeout = 50;
  tcfg.max_attempts = 3;
  ReliableTransport transport(copro, tcfg);

  isa::Program p;
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 1;
  p.emit(get);
  EXPECT_THROW(transport.call(p), SimError);
  EXPECT_EQ(transport.counters().get("transport.retries"), 2u);
  EXPECT_EQ(transport.counters().get("transport.failures"), 1u);
}

/// Pins the backoff schedule formula:
///   min(response_timeout * backoff_multiplier^(attempts-1),
///       response_timeout * max_backoff_factor)
/// Regression: the cap used to be hardcoded as "seven doublings", which only
/// matched the documented 64x when backoff_multiplier == 2.
TEST(Backoff, FormulaIsCappedByConfiguredFactor) {
  TransportConfig c;
  c.response_timeout = 100;
  c.backoff_multiplier = 2;
  c.max_backoff_factor = 64;
  EXPECT_EQ(backoff_timeout(c, 1), 100u);
  EXPECT_EQ(backoff_timeout(c, 2), 200u);
  EXPECT_EQ(backoff_timeout(c, 7), 6'400u);
  EXPECT_EQ(backoff_timeout(c, 8), 6'400u);   // 2^7 = 128: capped at 64x
  EXPECT_EQ(backoff_timeout(c, 40), 6'400u);  // stays capped forever

  // A larger multiplier reaches the same cap, not multiplier^7.
  c.backoff_multiplier = 8;
  EXPECT_EQ(backoff_timeout(c, 2), 800u);
  EXPECT_EQ(backoff_timeout(c, 3), 6'400u);  // 8^2 = 64: exactly the cap
  EXPECT_EQ(backoff_timeout(c, 4), 6'400u);

  // A cap that is not a power of the multiplier still bounds the timeout.
  c.backoff_multiplier = 3;
  c.max_backoff_factor = 10;
  EXPECT_EQ(backoff_timeout(c, 3), 900u);
  EXPECT_EQ(backoff_timeout(c, 4), 1'000u);  // min(27, 10) * 100
}

/// Regression for the runaway-backoff bug: with backoff_multiplier = 4 the
/// old seven-multiplications cap armed deadlines of up to 4^7x the base
/// timeout, so a dead link blew the per-call watchdog *before* the retry
/// chain could reach max_attempts (retries stopped at 4 here and the clean
/// give-up accounting never ran).  With the configured cap and the
/// remaining-budget clamp, every attempt fits inside the budget:
/// 1000 + 4000 + 16000 + 64000 = 85000 < 200000.
TEST(Backoff, LargeMultiplierStillGivesUpInsideTheWatchdogBudget) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  msg::FaultConfig f;
  f.up.drop_ppm = 1'000'000;  // the FPGA's answers never get through
  cfg.link_faults = f;
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.response_timeout = 1000;
  tcfg.backoff_multiplier = 4;
  tcfg.max_attempts = 5;
  ReliableTransport transport(copro, tcfg);

  isa::Program p;
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 1;
  p.emit(get);
  EXPECT_THROW(transport.call(p, /*budget_cycles=*/200'000), SimError);
  EXPECT_EQ(transport.counters().get("transport.retries"), 4u);
  EXPECT_EQ(transport.counters().get("transport.timeouts"), 5u);
  EXPECT_EQ(transport.counters().get("transport.failures"), 1u);
}

/// Regression for the clamp: a base timeout larger than the whole watchdog
/// budget used to mean the transport never probed at all — the watchdog
/// fired with zero timeouts recorded.  Each armed deadline is now clamped
/// to the program's remaining budget, so the retry machinery still runs.
TEST(Backoff, ArmedDeadlineIsClampedToRemainingWatchdogBudget) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  msg::FaultConfig f;
  f.up.drop_ppm = 1'000'000;
  cfg.link_faults = f;
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.response_timeout = 50'000;  // 5x the whole budget below
  ReliableTransport transport(copro, tcfg);

  isa::Program p;
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 1;
  p.emit(get);
  EXPECT_THROW(transport.call(p, /*budget_cycles=*/10'000), SimError);
  EXPECT_GE(transport.counters().get("transport.timeouts"), 1u);
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
        return got.size() == programs.size();
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
        return got.size() == 2;
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
  tcfg.response_timeout = 200;
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

/// Streamed responses arrive in program order, begin before the program
/// completes, and in total equal the completion's responses.
TEST(ReliableTransport, StreamedResponsesMatchTheCompletion) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);
  const isa::Program p = fpgafu::testing::random_program(small_rtm(), 55,
                                                         {.instructions = 25});
  const auto id = transport.submit(p, std::nullopt, /*stream=*/true);
  std::vector<msg::Response> streamed;
  std::optional<ReliableTransport::Completion> done;
  bool streamed_before_completion = false;
  copro.pump().run_until(
      [&] {
        transport.service();
        while (auto e = transport.poll_stream()) {
          EXPECT_EQ(e->id, id);
          streamed.push_back(e->response);
          if (transport.in_flight() > 0) {
            streamed_before_completion = true;
          }
        }
        if (auto c = transport.poll_completed()) {
          done = std::move(*c);
        }
        return done.has_value();
      },
      Deadline(sys.simulator(), 10'000'000), "stream test");

  EXPECT_EQ(streamed, done->responses);
  EXPECT_EQ(streamed, ReferenceModel(small_rtm()).run(p));
  EXPECT_TRUE(streamed_before_completion);
}

/// The windowed retry machinery (gap detection, burst re-reads, backoff)
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
  tcfg.response_timeout = 500;
  tcfg.max_attempts = 25;
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
        return got.size() == programs.size();
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

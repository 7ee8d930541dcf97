#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "host/reference_model.hpp"
#include "host/reliable_transport.hpp"
#include "isa/assembler.hpp"
#include "support/program_gen.hpp"
#include "util/error.hpp"

namespace fpgafu::host {
namespace {

using isa::Assembler;

rtm::RtmConfig small_rtm() {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 12;
  rcfg.flag_regs = 4;
  return rcfg;
}

std::vector<ReliableTransport::CoalescedItem> items_of(
    const std::vector<isa::Program>& programs) {
  std::vector<ReliableTransport::CoalescedItem> items;
  for (const isa::Program& p : programs) {
    items.push_back({&p, std::nullopt, false});
  }
  return items;
}

/// Submit one coalesced frame and pump it to completion, returning each
/// member's responses in submission order.
std::vector<std::vector<msg::Response>> run_frame(
    top::System& sys, Coprocessor& copro, ReliableTransport& transport,
    const std::vector<isa::Program>& programs) {
  const std::vector<ReliableTransport::ProgramId> ids =
      transport.submit_coalesced(items_of(programs));
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  copro.pump().run_until(
      [&] {
        transport.service();
        while (auto c = transport.poll_completed()) {
          got[c->id] = std::move(c->responses);
        }
        return got.size() == ids.size();
      },
      Deadline(sys.simulator(), 100'000'000), "coalesced frame test");
  std::vector<std::vector<msg::Response>> out;
  for (const auto id : ids) {
    out.push_back(std::move(got[id]));
  }
  return out;
}

// -- Frame layout -------------------------------------------------------------

TEST(FrameLayout, MembersCoverConcatenatedGroupsExactly) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);

  const isa::Program a = Assembler::assemble("PUT r1, #5\nGET r1");
  const isa::Program empty;  // zero groups, zero responses
  const isa::Program b = Assembler::assemble("GETV r2, 3\nPUT r3, #7");

  const FrameLayout frame =
      split_frame({&a, &empty, &b}, sys.rtm().config(), sys.rtm().table());
  ASSERT_EQ(frame.members.size(), 3u);
  ASSERT_EQ(frame.groups.size(), 4u);
  ASSERT_EQ(frame.predictions.size(), frame.groups.size());
  ASSERT_EQ(frame.effects.size(), frame.groups.size());

  EXPECT_EQ(frame.members[0].first_group, 0u);
  EXPECT_EQ(frame.members[0].group_count, 2u);
  EXPECT_EQ(frame.members[0].response_count, 1u);  // PUT 0 + GET 1

  // An empty member is a zero-width range between its neighbours.
  EXPECT_EQ(frame.members[1].first_group, 2u);
  EXPECT_EQ(frame.members[1].group_count, 0u);
  EXPECT_EQ(frame.members[1].response_count, 0u);

  EXPECT_EQ(frame.members[2].first_group, 2u);
  EXPECT_EQ(frame.members[2].group_count, 2u);
  EXPECT_EQ(frame.members[2].response_count, 3u);  // GETV burst of 3

  // Effects line up with the groups: member b's GETV reads r2..r4, its PUT
  // writes r3 — the write-read conflict the frame barrier must see.
  const GroupEffects& getv = frame.effects[2];
  const GroupEffects& put = frame.effects[3];
  ASSERT_TRUE(getv.exact);
  ASSERT_TRUE(put.exact);
  EXPECT_TRUE(getv.data_reads.test(2));
  EXPECT_TRUE(getv.data_reads.test(3));
  EXPECT_TRUE(getv.data_reads.test(4));
  EXPECT_TRUE(put.data_writes.test(3));
  EXPECT_TRUE(put.writes_conflict_with_reads_of(getv));
}

TEST(FrameLayout, PredictionsMatchReferenceCountsPerMember) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  std::vector<isa::Program> programs;
  for (std::uint64_t seed = 301; seed <= 306; ++seed) {
    programs.push_back(fpgafu::testing::random_program(
        small_rtm(), seed, {.instructions = 12, .include_errors = true}));
  }
  std::vector<const isa::Program*> ptrs;
  for (const auto& p : programs) {
    ptrs.push_back(&p);
  }
  const FrameLayout frame =
      split_frame(ptrs, sys.rtm().config(), sys.rtm().table());
  ASSERT_EQ(frame.members.size(), programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    // Each member's predicted response total equals what a fresh reference
    // machine produces for that program alone (counts are state-free).
    const auto expected = ReferenceModel(small_rtm()).run(programs[i]);
    EXPECT_EQ(frame.members[i].response_count, expected.size())
        << "member " << i;
  }
}

// -- Coalesced frames on a clean link ----------------------------------------

TEST(Coalescing, FrameMatchesSequentialCallsIncludingEmptyAndErrorMembers) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  top::System seq_sys(cfg);
  Coprocessor seq_copro(seq_sys);
  ReliableTransport seq_transport(seq_copro);

  std::vector<isa::Program> programs;
  programs.push_back(Assembler::assemble("PUT r1, #11\nGET r1"));
  programs.push_back(isa::Program{});  // empty member mid-frame
  // An erroring member mid-frame: GET of an out-of-range register answers
  // with exactly one error response and must not desynchronise demux.
  {
    isa::Instruction bad;
    bad.function = isa::fc::kRtm;
    bad.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    bad.src1 = 100;  // >= data_regs
    isa::Program p;
    p.emit(bad);
    programs.push_back(std::move(p));
  }
  programs.push_back(Assembler::assemble("PUT r2, #7\nADD r3, r1, r2\nGET r3"));

  std::vector<std::vector<msg::Response>> expected;
  for (const isa::Program& p : programs) {
    expected.push_back(seq_transport.call(p));
  }
  const auto got = run_frame(sys, copro, transport, programs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "member " << i;
  }
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
}

TEST(Coalescing, GetvBurstAtMemberBoundaryStaysAligned) {
  // Member A ends in a GETV burst, member B immediately writes into the
  // burst's source range: the per-register barrier must hold B's PUT until
  // A's reads retire, and demux must split the burst from B's responses.
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  top::System seq_sys(cfg);
  Coprocessor seq_copro(seq_sys);
  ReliableTransport seq_transport(seq_copro);

  std::vector<isa::Program> programs;
  programs.push_back(Assembler::assemble(R"(
    PUTV r2, 3
    .word #10
    .word #20
    .word #30
    GETV r2, 3
  )"));
  programs.push_back(Assembler::assemble("PUT r3, #99\nGET r3"));

  std::vector<std::vector<msg::Response>> expected;
  for (const isa::Program& p : programs) {
    expected.push_back(seq_transport.call(p));
  }
  const auto got = run_frame(sys, copro, transport, programs);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], expected[0]);
  EXPECT_EQ(got[1], expected[1]);
  ASSERT_EQ(got[1].size(), 1u);
  EXPECT_EQ(got[1][0].payload, 99u);  // B's write really landed after A read
}

TEST(Coalescing, IntraFrameWriteOrderIsPreservedOnConflicts) {
  // Writer then reader of the SAME register as two members of one frame:
  // the reader must observe the writer's value (the relaxed barrier only
  // reorders register-disjoint traffic).
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  std::vector<isa::Program> programs;
  programs.push_back(Assembler::assemble("GET r1"));         // reads old r1
  programs.push_back(Assembler::assemble("PUT r1, #42"));    // conflicts
  programs.push_back(Assembler::assemble("GET r1"));         // reads 42

  const auto got = run_frame(sys, copro, transport, programs);
  ASSERT_EQ(got.size(), 3u);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0].payload, 0u);  // pre-write value
  EXPECT_TRUE(got[1].empty());       // pure write: response-free completion
  ASSERT_EQ(got[2].size(), 1u);
  EXPECT_EQ(got[2][0].payload, 42u);
}

TEST(Coalescing, StreamedMemberInterleavesWithItsNeighbours) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  const isa::Program a = Assembler::assemble("PUT r1, #3\nGET r1");
  const isa::Program b = Assembler::assemble("PUT r2, #4\nGET r2\nGET r2");
  const std::vector<ReliableTransport::ProgramId> ids =
      transport.submit_coalesced({{&a, std::nullopt, false},
                                  {&b, std::nullopt, /*stream=*/true}});
  std::vector<msg::Response> streamed;
  std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
  copro.pump().run_until(
      [&] {
        transport.service();
        while (auto e = transport.poll_stream()) {
          EXPECT_EQ(e->id, ids[1]);  // only the streaming member surfaces
          streamed.push_back(e->response);
        }
        while (auto c = transport.poll_completed()) {
          got[c->id] = std::move(c->responses);
        }
        return got.size() == 2;
      },
      Deadline(sys.simulator(), 10'000'000), "coalesced stream test");
  EXPECT_EQ(streamed, got[ids[1]]);
  ASSERT_EQ(got[ids[0]].size(), 1u);
  EXPECT_EQ(got[ids[0]][0].payload, 3u);
}

// -- Coalesced frames under faults --------------------------------------------

TEST(Coalescing, FaultyLinkRecoversBitExactAcrossConflictingMembers) {
  // Members deliberately chain through the SAME registers, so retried reads
  // are only correct if the frame barrier really held conflicting writes.
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
    TransportConfig tcfg;
    tcfg.response_timeout = 500;
    tcfg.max_attempts = 25;
    ReliableTransport transport(copro, tcfg);

    top::SystemConfig clean_cfg;
    clean_cfg.rtm = small_rtm();
    top::System seq_sys(clean_cfg);
    Coprocessor seq_copro(seq_sys);
    ReliableTransport seq_transport(seq_copro);

    std::vector<isa::Program> programs;
    for (int i = 0; i < 6; ++i) {
      programs.push_back(Assembler::assemble(
          "PUT r1, #" + std::to_string(10 + i) +
          "\nADD r2, r1, r1\nGET r2\nGET r1"));
    }
    std::vector<std::vector<msg::Response>> expected;
    for (const isa::Program& p : programs) {
      expected.push_back(seq_transport.call(p));
    }
    const auto got = run_frame(sys, copro, transport, programs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " member " << i;
    }
    EXPECT_EQ(transport.counters().get("transport.failures"), 0u);
    total_retries += transport.counters().get("transport.retries") +
                     transport.counters().get("transport.dup_dropped") +
                     transport.counters().get("transport.stale_dropped");
  }
  EXPECT_GT(total_retries, 0u);  // the fault machinery actually fired
}

// -- The point of the exercise ------------------------------------------------

TEST(Coalescing, DisjointMembersUncoalescedWindowMatchesTheFrameOnCycles) {
  // The same 12 register-disjoint write+compute+read jobs, once as 12
  // one-member frames through a deep window and once as a single
  // coalesced frame.  Every flight uses the per-register write barrier,
  // which finds no conflicts here, so both stream the jobs back to back:
  // the responses must be identical and the window must need no more
  // simulated cycles than the frame.
  top::SystemConfig cfg;  // default RTM: 32 data registers
  std::vector<isa::Program> programs;
  for (int i = 0; i < 12; ++i) {
    const int a = 1 + 2 * i;
    const int b = a + 1;
    programs.push_back(Assembler::assemble(
        "PUT r" + std::to_string(a) + ", #" + std::to_string(100 + i) +
        "\nADD r" + std::to_string(b) + ", r" + std::to_string(a) + ", r" +
        std::to_string(a) + "\nGET r" + std::to_string(b)));
  }

  // Uncoalesced: one frame per program through a deep window.
  std::uint64_t windowed_cycles = 0;
  std::vector<std::vector<msg::Response>> windowed;
  {
    top::System sys(cfg);
    Coprocessor copro(sys);
    TransportConfig tcfg;
    tcfg.window = 16;
    ReliableTransport transport(copro, tcfg);
    std::vector<ReliableTransport::ProgramId> ids;
    std::map<ReliableTransport::ProgramId, std::vector<msg::Response>> got;
    std::size_t next = 0;
    const std::uint64_t start = sys.simulator().cycle();
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
        Deadline(sys.simulator(), 100'000'000), "windowed baseline");
    windowed_cycles = sys.simulator().cycle() - start;
    for (const auto id : ids) {
      windowed.push_back(std::move(got[id]));
    }
  }

  // Coalesced: all 12 in one frame.
  std::uint64_t coalesced_cycles = 0;
  std::vector<std::vector<msg::Response>> coalesced;
  {
    top::System sys(cfg);
    Coprocessor copro(sys);
    ReliableTransport transport(copro);
    const std::uint64_t start = sys.simulator().cycle();
    coalesced = run_frame(sys, copro, transport, programs);
    coalesced_cycles = sys.simulator().cycle() - start;
  }

  ASSERT_EQ(coalesced.size(), windowed.size());
  for (std::size_t i = 0; i < coalesced.size(); ++i) {
    EXPECT_EQ(coalesced[i], windowed[i]) << "member " << i;
  }
  EXPECT_LE(windowed_cycles, coalesced_cycles)
      << "windowed " << windowed_cycles << " vs coalesced "
      << coalesced_cycles;
}

TEST(Coalescing, RejectsEmptyAndOversubmission) {
  top::SystemConfig cfg;
  cfg.rtm = small_rtm();
  top::System sys(cfg);
  Coprocessor copro(sys);
  TransportConfig tcfg;
  tcfg.window = 1;
  ReliableTransport transport(copro, tcfg);
  EXPECT_THROW(transport.submit_coalesced({}), SimError);
  const isa::Program p = Assembler::assemble("PUT r1, #1");
  transport.submit_coalesced({{&p, std::nullopt, false}});
  EXPECT_TRUE(transport.window_full());
  EXPECT_THROW(transport.submit_coalesced({{&p, std::nullopt, false}}),
               SimError);
  transport.abort_in_flight();
}

}  // namespace
}  // namespace fpgafu::host

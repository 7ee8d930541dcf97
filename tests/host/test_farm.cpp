#include "host/farm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "support/stuck_unit.hpp"
#include "util/rng.hpp"

namespace fpgafu::host {
namespace {

/// A random program that writes every register it later reads, so its
/// response stream is independent of whatever earlier jobs left in the
/// shard's register file — the property that lets every farm job be
/// checked against a *fresh* ReferenceModel regardless of which shard it
/// lands on.
isa::Program selfcontained_program(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string src;
  for (int r = 1; r <= 4; ++r) {
    src += "PUT r" + std::to_string(r) + ", #" +
           std::to_string(rng.below(1u << 20)) + "\n";
  }
  src += "ADD r5, r1, r2\n";
  src += "SUB r6, r3, r4\n";
  src += "ADD r7, r5, r6\n";
  src += "GET r5\nGET r6\nGET r7\n";
  return isa::Assembler::assemble(src);
}

std::vector<msg::Response> reference_run(const isa::Program& p) {
  return ReferenceModel(top::SystemConfig{}.rtm).run(p);
}

TEST(Farm, InlineFarmMatchesPlainCoprocessorCallExactly) {
  FarmConfig fc;
  fc.shards = 0;  // inline: no threads, caller-owned shard
  Farm farm(fc);
  EXPECT_TRUE(farm.inline_mode());
  EXPECT_EQ(farm.shard_count(), 1u);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const isa::Program p = selfcontained_program(seed);
    const std::vector<msg::Response> got = farm.submit(p).get();

    top::System sys({});
    Coprocessor copro(sys);
    const std::vector<msg::Response> plain = copro.call(p);

    EXPECT_EQ(got, plain) << "seed " << seed;
    EXPECT_EQ(got, reference_run(p)) << "seed " << seed;
  }
}

TEST(Farm, SingleShardFarmMatchesPlainCoprocessorCallExactly) {
  FarmConfig fc;
  fc.shards = 1;
  Farm farm(fc);
  EXPECT_FALSE(farm.inline_mode());

  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const isa::Program p = selfcontained_program(seed);
    const std::vector<msg::Response> got = farm.submit(p).get();

    top::System sys({});
    Coprocessor copro(sys);
    EXPECT_EQ(got, copro.call(p)) << "seed " << seed;
    EXPECT_EQ(got, reference_run(p)) << "seed " << seed;
  }
}

TEST(Farm, MultiShardJobsAllMatchTheReferenceModel) {
  FarmConfig fc;
  fc.shards = 4;
  Farm farm(fc);

  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 100; seed < 132; ++seed) {
    programs.push_back(selfcontained_program(seed));
    futures.push_back(farm.submit(programs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
  // Counter snapshots are published after the future resolves; shutdown()
  // joins the workers, after which the fleet view is exact.
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), futures.size());
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
  EXPECT_EQ(totals.get("farm.shard_resets"), 0u);
}

TEST(Farm, StickySessionsKeepRegisterStateOnTheirShard) {
  FarmConfig fc;
  fc.shards = 2;
  Farm farm(fc);
  const Farm::SessionId a = farm.create_session();
  const Farm::SessionId b = farm.create_session();
  ASSERT_NE(farm.shard_of(a), farm.shard_of(b));

  // A writes r1 on its shard (a response-less job), then reads it back —
  // sticky affinity means the second job sees the first one's write.
  farm.submit(a, isa::Assembler::assemble("PUT r1, #42")).get();
  const auto got_a = farm.submit(a, isa::Assembler::assemble("GET r1")).get();
  ASSERT_EQ(got_a.size(), 1u);
  EXPECT_EQ(got_a[0].payload, 42u);

  // B's shard never saw the write: its register file still reads zero.
  const auto got_b = farm.submit(b, isa::Assembler::assemble("GET r1")).get();
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_b[0].payload, 0u);

  // The mapping is stable: the same session always lands on one shard.
  EXPECT_EQ(farm.shard_of(a), farm.shard_of(a));
}

TEST(Farm, WatchdogTripFailsOnlyThatShardAndItRecovers) {
  FarmConfig fc;
  fc.shards = 2;
  Farm farm(fc);
  const Farm::SessionId sick = farm.create_session();   // shard 0
  const Farm::SessionId healthy = farm.create_session();  // shard 1
  ASSERT_NE(farm.shard_of(sick), farm.shard_of(healthy));

  // Shard 0: a chunky-but-correct job first (keeps the worker busy while
  // the rest of the queue forms), then a job whose 4-cycle budget cannot
  // possibly cover a GET round trip, then two more queued behind it.
  std::string chunky_src;
  for (int i = 0; i < 120; ++i) {
    chunky_src += "PUT r1, #" + std::to_string(i) + "\nGET r1\n";
  }
  const isa::Program chunky = isa::Assembler::assemble(chunky_src);
  const isa::Program poison = isa::Assembler::assemble("GET r2");
  const isa::Program follower = selfcontained_program(77);

  auto fut_chunky = farm.submit(sick, chunky);
  auto fut_poison = farm.submit(sick, poison, /*budget_cycles=*/4);
  auto fut_f1 = farm.submit(sick, follower);
  auto fut_f2 = farm.submit(sick, follower);

  // Shard 1 keeps serving normally throughout.
  std::vector<isa::Program> other_programs;
  std::vector<std::future<std::vector<msg::Response>>> other;
  for (std::uint64_t seed = 300; seed < 308; ++seed) {
    other_programs.push_back(selfcontained_program(seed));
    other.push_back(farm.submit(healthy, other_programs.back()));
  }

  EXPECT_EQ(fut_chunky.get(), reference_run(chunky));

  try {
    fut_poison.get();
    FAIL() << "poison job must fail";
  } catch (const FarmError& e) {
    EXPECT_EQ(e.kind(), FarmError::Kind::kShardFault);
    EXPECT_EQ(e.shard(), farm.shard_of(sick));
  }

  // Jobs queued behind the poison at trip time are failed with the same
  // typed error (their register state died with the recovery reset).  If
  // the worker happened to drain them after the reset instead, they must
  // still produce correct (self-contained) results — never hang.
  for (auto* fut : {&fut_f1, &fut_f2}) {
    try {
      EXPECT_EQ(fut->get(), reference_run(follower));
    } catch (const FarmError& e) {
      EXPECT_EQ(e.kind(), FarmError::Kind::kShardFault);
      EXPECT_EQ(e.shard(), farm.shard_of(sick));
    }
  }

  // Fault isolation: every job on the healthy shard is untouched.
  for (std::size_t i = 0; i < other.size(); ++i) {
    EXPECT_EQ(other[i].get(), reference_run(other_programs[i]))
        << "healthy job " << i;
  }

  // The tripped shard was reset and keeps serving new submissions.
  const isa::Program after = selfcontained_program(999);
  EXPECT_EQ(farm.submit(sick, after).get(), reference_run(after));

  const sim::Counters totals = farm.counters();
  EXPECT_GE(totals.get("farm.shard_resets"), 1u);
  EXPECT_GE(totals.get("farm.jobs_failed"), 1u);
}

TEST(Farm, DestructionDrainsQueuedJobsCleanly) {
  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  {
    FarmConfig fc;
    fc.shards = 2;
    Farm farm(fc);
    for (std::uint64_t seed = 500; seed < 524; ++seed) {
      programs.push_back(selfcontained_program(seed));
      futures.push_back(farm.submit(programs.back()));
    }
    // The farm is destroyed here with most jobs still queued: graceful
    // shutdown drains them rather than abandoning their futures.
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
}

TEST(Farm, ShutdownRefusesNewSubmissions) {
  FarmConfig fc;
  fc.shards = 1;
  Farm farm(fc);
  farm.shutdown();
  EXPECT_THROW(farm.submit(selfcontained_program(1)), FarmError);
  try {
    farm.submit(selfcontained_program(1));
  } catch (const FarmError& e) {
    EXPECT_EQ(e.kind(), FarmError::Kind::kShutdown);
  }
  farm.shutdown();  // idempotent
}

TEST(Farm, InlineShutdownRefusesNewSubmissions) {
  FarmConfig fc;
  fc.shards = 0;
  Farm farm(fc);
  farm.submit(selfcontained_program(3)).get();
  farm.shutdown();
  EXPECT_THROW(farm.submit(selfcontained_program(4)), FarmError);
}

TEST(Farm, BackpressureQueueStillCompletesEverything) {
  // A 2-deep queue forces submit() to block (backpressure) instead of
  // growing without bound; every job still completes correctly.
  FarmConfig fc;
  fc.shards = 1;
  fc.queue_capacity = 2;
  Farm farm(fc);
  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 700; seed < 716; ++seed) {
    programs.push_back(selfcontained_program(seed));
    futures.push_back(farm.submit(programs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
  // Counter snapshots are published after the future resolves; shutdown()
  // joins the worker, after which the fleet view is exact.
  farm.shutdown();
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), futures.size());
}

TEST(Farm, AggregatedCountersMergeEveryShard) {
  FarmConfig fc;
  fc.shards = 3;
  Farm farm(fc);
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 900; seed < 912; ++seed) {
    futures.push_back(farm.submit(selfcontained_program(seed)));
  }
  for (auto& f : futures) {
    f.get();
  }
  farm.shutdown();  // workers publish their final snapshots before joining
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), 12u);
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
  // Per-shard transport and framing statistics participate in the merge
  // (zero on a clean link, but the names must be present fleet-wide —
  // all() materialises only counters that exist).
  const auto names = totals.all();
  EXPECT_EQ(names.count("transport.retries"), 1u);
  EXPECT_EQ(names.count("host.crc_resyncs"), 1u);
  EXPECT_EQ(totals.get("transport.retries"), 0u);
}

TEST(Farm, RejectsDegenerateConfiguration) {
  {
    FarmConfig fc;
    fc.queue_capacity = 0;
    EXPECT_THROW(Farm{fc}, SimError);
  }
  {
    FarmConfig fc;
    fc.system.message_buffer_depth = 0;  // surfaced on the caller's thread
    EXPECT_THROW(Farm{fc}, SimError);
  }
  {
    FarmConfig fc;
    fc.transport.window = 0;
    EXPECT_THROW(Farm{fc}, SimError);
  }
}

/// A long-but-correct program that keeps a worker busy for a while, so the
/// tests below can deterministically form queues behind it.
isa::Program chunky_program(int pairs) {
  std::string src;
  for (int i = 0; i < pairs; ++i) {
    src += "PUT r1, #" + std::to_string(i) + "\nGET r1\n";
  }
  return isa::Assembler::assemble(src);
}

TEST(Farm, WindowedShardsMatchTheReferenceModel) {
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 8;  // pipelined: up to 8 jobs in flight per shard
  Farm farm(fc);

  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 1300; seed < 1332; ++seed) {
    programs.push_back(selfcontained_program(seed));
    futures.push_back(farm.submit(programs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), futures.size());
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
  EXPECT_EQ(totals.get("farm.shard_resets"), 0u);
}

/// A completion-keyed stream of tiny jobs: twelve register-disjoint
/// sessions of PUT/ADD/GET, started by one kick-off job whose callback
/// submits the rest.  Every arrival is keyed to a completion, so the
/// simulated cycles it returns do not depend on thread timing.
std::uint64_t completion_keyed_stream(std::size_t shards) {
  constexpr std::size_t kSessions = 12;
  constexpr std::size_t kJobs = 192;
  FarmConfig fc;
  fc.shards = shards;
  fc.transport.window = 8;
  fc.queue_capacity = kJobs;  // the kick-off's callback sheds nothing
  Farm farm(fc);
  std::vector<Farm::SessionId> sessions;
  std::vector<isa::Program> programs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    std::string a = "r";  // not "r" + ...: GCC 12 -Werror=restrict
    a += std::to_string(1 + 2 * i);
    std::string b = "r";
    b += std::to_string(2 + 2 * i);
    sessions.push_back(farm.create_session());
    programs.push_back(isa::Assembler::assemble(
        "PUT " + a + ", #" + std::to_string(100 + i) + "\nADD " + b + ", " +
        a + ", " + a + "\nGET " + b));
  }
  std::mutex m;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t wrong = 0;
  const auto check = [&](std::size_t who) {
    return [&, who](std::vector<msg::Response> rs, std::exception_ptr err) {
      std::lock_guard<std::mutex> lk(m);
      if (err || rs != reference_run(programs[who])) {
        ++wrong;
      }
      ++done;
      cv.notify_all();
    };
  };
  farm.submit_async(sessions[0], programs[0],
                    [&](std::vector<msg::Response> rs, std::exception_ptr err) {
                      for (std::size_t k = 1; k < kJobs; ++k) {
                        farm.submit_async(sessions[k % kSessions],
                                          programs[k % kSessions],
                                          check(k % kSessions));
                      }
                      check(0)(std::move(rs), err);
                    });
  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kJobs; });
  }
  EXPECT_EQ(wrong, 0u);
  farm.shutdown();  // exact counters, including the final shard clock
  return farm.counters().get("farm.shard_cycles");
}

/// Inline and threaded farms run the same shard step, so at window 8 they
/// spend identical simulated cycles on the same completion-keyed stream.
/// The count is pinned: 192 register-disjoint tiny jobs stream at the
/// 6-word downlink floor (a one-word PUTI, ADD and GET, each 2 link words)
/// plus the kick-off's round trip.
TEST(Farm, InlineAndThreadedShardsSpendIdenticalCyclesOnACompletionKeyedStream) {
  const std::uint64_t inline_cycles = completion_keyed_stream(0);
  const std::uint64_t threaded_cycles = completion_keyed_stream(1);
  EXPECT_EQ(inline_cycles, threaded_cycles);
  EXPECT_EQ(threaded_cycles, 1170u);
}

/// The ring behind job_latency_samples() at a capacity small enough to
/// wrap many times: after runs of pushes of any length (longer than the
/// ring too) it holds exactly what a fill-then-overwrite-the-oldest ring
/// holds.
TEST(LatencyRing, AppendedRunsWrapLikeOneSampleAtATime) {
  constexpr std::size_t kCapacity = 5;
  LatencyRing ring(kCapacity);
  std::vector<std::uint64_t> expect;
  std::size_t cursor = 0;
  std::uint64_t next = 1;
  for (const std::size_t run : {0u, 3u, 1u, 4u, 2u, 0u, 7u, 5u, 11u, 1u, 6u}) {
    for (std::size_t i = 0; i < run; ++i) {
      ring.push(next);
      if (expect.size() < kCapacity) {
        expect.push_back(next);
      } else {
        expect[cursor] = next;
        cursor = (cursor + 1) % kCapacity;
      }
      ++next;
    }
    ASSERT_EQ(ring.samples(), expect) << "after " << next - 1 << " samples";
  }
  EXPECT_EQ(ring.samples().size(), kCapacity);
}

TEST(Farm, AsyncCallbacksDeliverEveryResult) {
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 4;
  Farm farm(fc);

  constexpr std::size_t kJobs = 24;
  std::vector<isa::Program> programs;
  for (std::uint64_t seed = 1400; seed < 1400 + kJobs; ++seed) {
    programs.push_back(selfcontained_program(seed));
  }
  std::mutex m;
  std::condition_variable cv;
  std::size_t resolved = 0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    farm.submit_async(
        programs[i],
        [&, i](std::vector<msg::Response> rs, std::exception_ptr err) {
          std::lock_guard<std::mutex> lk(m);
          if (!err && rs == reference_run(programs[i])) {
            ++correct;
          }
          ++resolved;
          cv.notify_all();
        });
  }
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return resolved == kJobs; });
  EXPECT_EQ(correct, kJobs);
}

/// A job's one result is its completion: at window 2 the callback receives
/// every response at once, in program order.
TEST(Farm, StreamingDeliversResponsesInProgramOrder) {
  FarmConfig fc;
  fc.shards = 1;
  fc.transport.window = 2;
  Farm farm(fc);

  const isa::Program p = selfcontained_program(5);
  std::mutex m;
  std::condition_variable cv;
  std::vector<msg::Response> got;
  bool finished = false;
  std::exception_ptr failure;
  farm.submit_async(p, [&](std::vector<msg::Response> rs,
                           std::exception_ptr err) {
    std::lock_guard<std::mutex> lk(m);
    got = std::move(rs);
    failure = err;
    finished = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return finished; });
  EXPECT_EQ(failure, nullptr);
  EXPECT_EQ(got, reference_run(p));
}

/// Bugfix regression (stats publishing): snapshots used to be copied under
/// the shard mutex after *every* job.  Statistics are now only pulled by a
/// read: with a burst of queued jobs and no reader during the run, the job
/// total is exact at the first read and after shutdown.
TEST(Farm, StatsPublishingIsAmortisedAcrossJobs) {
  FarmConfig fc;
  fc.shards = 1;
  fc.queue_capacity = 64;
  Farm farm(fc);
  // The first job's callback holds the worker until every other job is
  // queued, so a worker faster than this thread cannot take the jobs one at
  // a time as they arrive, idling between each.
  std::promise<void> gate;
  std::shared_future<void> all_queued = gate.get_future().share();
  auto first_done = std::make_shared<std::promise<void>>();
  auto first = first_done->get_future();
  farm.submit_async(selfcontained_program(1500),
                    [all_queued, first_done](std::vector<msg::Response>,
                                             std::exception_ptr) {
                      all_queued.wait();
                      first_done->set_value();
                    });
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 1501; seed < 1564; ++seed) {
    futures.push_back(farm.submit(selfcontained_program(seed)));
  }
  gate.set_value();
  first.get();
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), 64u);
  farm.shutdown();
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), 64u);
}

/// Bugfix regression (idle publishing): a worker used to publish a full
/// snapshot every time it went idle, so one that outpaced its submitter
/// published once per job.  Submit, wait, read, resubmit: the worker idles
/// after every job and publishes nothing; what a reader sees after each
/// get() is exact, and so is the total after shutdown.
TEST(Farm, IdleWorkerPublishesPerIntervalNotPerJob) {
  constexpr std::uint64_t kJobs = 64;
  FarmConfig fc;
  fc.shards = 1;
  Farm farm(fc);
  for (std::uint64_t k = 1; k <= kJobs; ++k) {
    const isa::Program p = selfcontained_program(1600 + k);
    ASSERT_EQ(farm.submit(p).get(), reference_run(p));
    const sim::Counters c = farm.counters();
    EXPECT_EQ(c.get("farm.jobs_completed"), k);
    EXPECT_EQ(farm.job_latency_samples().size(), k);
  }
  const sim::Counters c = farm.counters();
  EXPECT_EQ(c.get("farm.jobs_completed"), kJobs);
  // An idle shard's clock stands still, so a second read agrees.
  EXPECT_EQ(farm.counters().get("farm.shard_cycles"),
            c.get("farm.shard_cycles"));
  farm.shutdown();
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), kJobs);
}

/// A read on a busy shard is exact.  A job behind a unit that never takes
/// an instruction keeps the shard pumping for its whole budget; the worker
/// answers each read between two pump wakes instead of at its next
/// completion, so every read sees all the jobs resolved before it.  Prints
/// the longest wait of a read.
TEST(Farm, ReaderOnABusyShardSeesEveryResolvedJob) {
  constexpr std::uint64_t kJobs = 20;
  constexpr std::uint64_t kStuckBudget = 1'000'000;
  FarmConfig fc;
  fc.shards = 1;
  fc.system = testing::stuck_config();
  fc.fu_slots = 1;
  fc.fu_images.push_back(testing::stuck_image());
  Farm farm(fc);
  const Farm::SessionId stuck = farm.create_session({"stuck"});
  for (std::uint64_t k = 0; k < kJobs; ++k) {
    const isa::Program p = selfcontained_program(1800 + k);
    ASSERT_EQ(farm.submit(p).get(), reference_run(p));
  }
  auto wedged = farm.submit(stuck, testing::stuck_program(), kStuckBudget);

  using Clock = std::chrono::steady_clock;
  Clock::duration longest{};
  const auto timed = [&](auto read) {
    const Clock::time_point t0 = Clock::now();
    auto result = read();
    longest = std::max(longest, Clock::now() - t0);
    return result;
  };
  // Read until the shard's clock has moved between two reads kMoves times
  // (the stuck job is on the wire and the worker inside its pump loop) or
  // the stuck job fails.  A read counts only if the stuck job was still
  // unresolved after it returned; on a loaded host the budget may run out
  // first, but the clock must have moved at least once.
  constexpr int kMoves = 16;
  std::uint64_t cycles = 0;
  int moved = 0;
  while (moved < kMoves) {
    const sim::Counters c = timed([&] { return farm.counters(); });
    const std::size_t samples =
        timed([&] { return farm.job_latency_samples(); }).size();
    if (wedged.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      break;
    }
    EXPECT_EQ(c.get("farm.jobs_completed"), kJobs);
    EXPECT_EQ(c.get("farm.jobs_failed"), 0u);
    EXPECT_EQ(samples, kJobs);
    if (cycles > 0 && c.get("farm.shard_cycles") > cycles) {
      ++moved;
    }
    cycles = c.get("farm.shard_cycles");
  }
  EXPECT_GE(moved, 1) << "no read saw the stuck job's shard pumping";
  std::printf("longest read on a busy shard: %.1f us\n",
              std::chrono::duration<double, std::micro>(longest).count());
  try {
    wedged.get();
    FAIL() << "a job behind a stuck unit must fail";
  } catch (const FarmError& e) {
    EXPECT_EQ(e.kind(), FarmError::Kind::kShardFault);
  }
}

/// A callback runs on its shard's worker, the only thread that frees queue
/// space, so a follow-up it submits into a full blocking queue is shed
/// with kOverload instead of parking that worker for good.
TEST(Farm, CallbackSubmitIntoAFullBlockingQueueShedsInsteadOfBlocking) {
  FarmConfig fc;
  fc.shards = 1;
  fc.queue_capacity = 1;
  fc.transport.window = 1;
  Farm farm(fc);
  const isa::Program b = selfcontained_program(1701);
  std::future<std::vector<msg::Response>> b_result;
  std::optional<FarmError::Kind> c_refusal;
  std::promise<void> callback_done;
  farm.submit_async(
      selfcontained_program(1700),
      [&](std::vector<msg::Response>, std::exception_ptr) {
        b_result = farm.submit(b);  // takes the queue's one slot
        try {
          farm.submit_async(selfcontained_program(1702),
                            [](std::vector<msg::Response>, std::exception_ptr) {
                            });
        } catch (const FarmError& e) {
          c_refusal = e.kind();
        }
        callback_done.set_value();
      });
  callback_done.get_future().get();
  ASSERT_TRUE(c_refusal.has_value());
  EXPECT_EQ(*c_refusal, FarmError::Kind::kOverload);
  EXPECT_EQ(b_result.get(), reference_run(b));
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_shed"), 1u);
  EXPECT_EQ(totals.get("farm.jobs_completed"), 2u);
}

/// A completion callback reading the fleet view answers its own shard's
/// read itself instead of waiting on the worker that runs it, so its own
/// job is in the view, and an idle peer answers too.
TEST(Farm, CountersReadInsideACallbackDoNotWaitOnTheirOwnShard) {
  FarmConfig fc;
  fc.shards = 2;
  Farm farm(fc);
  const Farm::SessionId on_0 = farm.create_session();
  const Farm::SessionId on_1 = farm.create_session();
  ASSERT_NE(farm.shard_of(on_0), farm.shard_of(on_1));
  const isa::Program p = selfcontained_program(1700);
  ASSERT_EQ(farm.submit(on_1, p).get(), reference_run(p));
  std::promise<std::pair<std::uint64_t, std::size_t>> seen;
  farm.submit_async(on_0, p,
                    [&](std::vector<msg::Response>, std::exception_ptr) {
                      seen.set_value(
                          {farm.counters().get("farm.jobs_completed"),
                           farm.job_latency_samples().size()});
                    });
  const auto [completed, samples] = seen.get_future().get();
  EXPECT_EQ(completed, 2u);
  EXPECT_EQ(samples, 2u);
  ASSERT_EQ(farm.submit(on_0, p).get(), reference_run(p));
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), 3u);
}

/// The one deadlock a pull-only fleet view could bring: callbacks on two
/// shards, both running at once, each reading the farm and so waiting for
/// the other's worker — which is running the other callback.  Each answers
/// its own shard's reads while it waits, so both return, and each sees
/// both jobs.
TEST(Farm, CallbacksOnTwoShardsReadEachOtherWithoutDeadlock) {
  FarmConfig fc;
  fc.shards = 2;
  Farm farm(fc);
  const std::array<Farm::SessionId, 2> sessions = {farm.create_session(),
                                                    farm.create_session()};
  ASSERT_NE(farm.shard_of(sessions[0]), farm.shard_of(sessions[1]));
  const isa::Program p = selfcontained_program(1750);
  std::atomic<int> running{0};
  std::array<std::promise<std::pair<std::uint64_t, std::size_t>>, 2> seen;
  for (std::size_t i = 0; i < 2; ++i) {
    farm.submit_async(sessions[i], p,
                      [&, i](std::vector<msg::Response>, std::exception_ptr) {
                        running.fetch_add(1);
                        while (running.load() < 2) {
                          std::this_thread::yield();
                        }
                        seen[i].set_value(
                            {farm.counters().get("farm.jobs_completed"),
                             farm.job_latency_samples().size()});
                      });
  }
  for (std::size_t i = 0; i < 2; ++i) {
    auto view = seen[i].get_future();
    ASSERT_EQ(view.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "callback " << i << " is still waiting on its read";
    const auto [completed, samples] = view.get();
    EXPECT_EQ(completed, 2u) << "callback " << i;
    EXPECT_EQ(samples, 2u) << "callback " << i;
  }
}

/// Bugfix regression (admission unification): the inline path used to
/// bypass queue_capacity entirely.  It now admits like the threaded path,
/// and a callback's follow-up that meets a full queue is refused with the
/// same typed kOverload, since the caller stepping the farm has no worker
/// to wait for.  A session's follow-up is admitted like any other job.
TEST(Farm, InlineAdmissionEnforcesSessionBoundsAndCapacity) {
  FarmConfig fc;
  fc.shards = 0;  // inline
  fc.queue_capacity = 1;
  Farm farm(fc);
  const Farm::SessionId s = farm.create_session();
  const isa::Program p = selfcontained_program(8);

  bool capacity_overload = false;
  std::vector<std::string> ran;
  farm.submit_async(s, p, [&](std::vector<msg::Response> rs,
                              std::exception_ptr err) {
    EXPECT_EQ(err, nullptr);
    EXPECT_EQ(rs, reference_run(p));
    ran.push_back("outer");
    // The session's follow-up takes the 1-deep queue's only slot ...
    farm.submit_async(s, p, [&](std::vector<msg::Response> nested,
                                std::exception_ptr nested_err) {
      EXPECT_EQ(nested_err, nullptr);
      EXPECT_EQ(nested, reference_run(p));
      ran.push_back("session follow-up");
    });
    // ... so the session-less one behind it is shed.
    try {
      farm.submit_async(p, [&](std::vector<msg::Response>,
                               std::exception_ptr) {
        ran.push_back("session-less follow-up");
      });
    } catch (const FarmError& e) {
      capacity_overload = e.kind() == FarmError::Kind::kOverload;
    }
  });
  EXPECT_TRUE(capacity_overload);
  EXPECT_EQ(ran, (std::vector<std::string>{"outer", "session follow-up"}));
  const sim::Counters c = farm.counters();
  EXPECT_EQ(c.get("farm.jobs_shed"), 1u);
  EXPECT_EQ(c.get("farm.jobs_completed"), 2u);
}

/// A session has no bound of its own: three unresolved jobs of one session
/// are all admitted while the queue has space, and none is shed.
TEST(Farm, SessionInFlightBoundShedsWithTypedOverload) {
  FarmConfig fc;
  fc.shards = 1;
  Farm farm(fc);
  const Farm::SessionId s = farm.create_session();

  // The chunky job occupies the worker, and its callback holds it
  // unresolved until the third submission has been made, so a fast worker
  // cannot finish it first.
  const isa::Program chunky = chunky_program(1000);
  const isa::Program small = selfcontained_program(9);
  std::promise<void> gate;
  std::shared_future<void> tried = gate.get_future().share();
  auto first = std::make_shared<std::promise<std::vector<msg::Response>>>();
  auto f1 = first->get_future();
  farm.submit_async(s, chunky,
                    [first, tried](std::vector<msg::Response> rs,
                                   std::exception_ptr err) {
                      tried.wait();
                      if (err) {
                        first->set_exception(err);
                      } else {
                        first->set_value(std::move(rs));
                      }
                    });
  auto f2 = farm.submit(s, small);
  auto f3 = farm.submit(s, small);
  gate.set_value();
  EXPECT_EQ(f1.get(), reference_run(chunky));
  EXPECT_EQ(f2.get(), reference_run(small));
  EXPECT_EQ(f3.get(), reference_run(small));
  EXPECT_EQ(farm.counters().get("farm.jobs_shed"), 0u);
}

/// Satellite test: shutting down while a producer is blocked on
/// backpressure must wake it with kShutdown (or let its job through if the
/// race resolves first) — never deadlock — and every queued future still
/// resolves.
TEST(Farm, ShutdownWakesProducersBlockedOnBackpressure) {
  FarmConfig fc;
  fc.shards = 1;
  fc.queue_capacity = 1;
  Farm farm(fc);
  const isa::Program chunky = chunky_program(1000);

  auto f1 = farm.submit(chunky);  // worker takes it
  auto f2 = farm.submit(chunky);  // fills the 1-deep queue
  std::promise<void> started;
  std::atomic<bool> refused_with_shutdown{false};
  std::atomic<bool> producer_resolved{false};
  std::thread producer([&] {
    started.set_value();
    try {
      auto f3 = farm.submit(chunky);  // blocks: the queue is full
      f3.get();
      producer_resolved.store(true);
    } catch (const FarmError& e) {
      refused_with_shutdown.store(e.kind() == FarmError::Kind::kShutdown);
    }
  });
  started.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  farm.shutdown();  // must wake the blocked producer
  producer.join();  // and never deadlock
  EXPECT_TRUE(refused_with_shutdown.load() || producer_resolved.load());
  // No broken promises: the accepted jobs drain normally.
  EXPECT_EQ(f1.get(), reference_run(chunky));
  EXPECT_EQ(f2.get(), reference_run(chunky));
}

/// Satellite test: a fault with a full window in flight fails that whole
/// window (and the queue behind it) with kShardFault, while the other
/// shard's concurrent in-flight work is undisturbed and the sick shard
/// recovers.
TEST(Farm, ShardFaultDuringWindowFailsOnlyThatWindow) {
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 4;
  Farm farm(fc);
  const Farm::SessionId sick = farm.create_session();
  const Farm::SessionId healthy = farm.create_session();
  ASSERT_NE(farm.shard_of(sick), farm.shard_of(healthy));

  const isa::Program chunky = chunky_program(120);
  const isa::Program poison = isa::Assembler::assemble("GET r2");
  const isa::Program follower = selfcontained_program(77);

  // One window's worth lands together: chunky + poison + two followers.
  auto fut_chunky = farm.submit(sick, chunky);
  auto fut_poison = farm.submit(sick, poison, /*budget_cycles=*/4);
  auto fut_f1 = farm.submit(sick, follower);
  auto fut_f2 = farm.submit(sick, follower);

  std::vector<isa::Program> other_programs;
  std::vector<std::future<std::vector<msg::Response>>> other;
  for (std::uint64_t seed = 1600; seed < 1608; ++seed) {
    other_programs.push_back(selfcontained_program(seed));
    other.push_back(farm.submit(healthy, other_programs.back()));
  }

  try {
    fut_poison.get();
    FAIL() << "poison job must fail";
  } catch (const FarmError& e) {
    EXPECT_EQ(e.kind(), FarmError::Kind::kShardFault);
    EXPECT_EQ(e.shard(), farm.shard_of(sick));
  }
  // Window-mates and queued jobs at trip time die with the same typed
  // error; any that happened to run before (or were re-queued after) the
  // reset must produce correct results — never hang.
  for (auto* fut : {&fut_chunky, &fut_f1, &fut_f2}) {
    try {
      const auto rs = fut->get();
      EXPECT_TRUE(rs == reference_run(chunky) || rs == reference_run(follower));
    } catch (const FarmError& e) {
      EXPECT_EQ(e.kind(), FarmError::Kind::kShardFault);
      EXPECT_EQ(e.shard(), farm.shard_of(sick));
    }
  }
  // Fault isolation: the healthy shard's windowed work is all intact.
  for (std::size_t i = 0; i < other.size(); ++i) {
    EXPECT_EQ(other[i].get(), reference_run(other_programs[i]))
        << "healthy job " << i;
  }
  // The sick shard was reset and keeps serving.
  const isa::Program after = selfcontained_program(999);
  EXPECT_EQ(farm.submit(sick, after).get(), reference_run(after));
  EXPECT_GE(farm.counters().get("farm.shard_resets"), 1u);
}

/// Queued jobs are dequeued round-robin across sessions (FIFO within one),
/// so a small tenant's jobs complete interleaved with a flooding tenant's
/// burst instead of behind all of it.
TEST(Farm, RoundRobinDequeueKeepsTenantsFair) {
  FarmConfig fc;
  fc.shards = 1;  // both sessions share the one shard
  Farm farm(fc);
  const Farm::SessionId a = farm.create_session();
  const Farm::SessionId b = farm.create_session();

  // Occupy the worker so the queue forms behind it: the stall job's
  // callback holds the worker until every job below is queued, so a fast
  // worker cannot take them one at a time as they arrive.
  std::promise<void> gate;
  std::shared_future<void> all_queued = gate.get_future().share();
  auto stalled = std::make_shared<std::promise<void>>();
  auto stall = stalled->get_future();
  farm.submit_async(chunky_program(300),
                    [all_queued, stalled](std::vector<msg::Response>,
                                          std::exception_ptr) {
                      all_queued.wait();
                      stalled->set_value();
                    });

  std::mutex m;
  std::condition_variable cv;
  std::vector<char> order;
  auto record = [&](char tag) {
    return [&, tag](std::vector<msg::Response>, std::exception_ptr) {
      std::lock_guard<std::mutex> lk(m);
      order.push_back(tag);
      cv.notify_all();
    };
  };
  for (std::uint64_t seed = 1700; seed < 1706; ++seed) {
    farm.submit_async(a, selfcontained_program(seed), record('a'));
  }
  farm.submit_async(b, selfcontained_program(1710), record('b'));
  farm.submit_async(b, selfcontained_program(1711), record('b'));

  gate.set_value();
  stall.get();
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return order.size() == 8; });
  // Round-robin: b's second job lands within the first ~4 completions.
  // Pure FIFO would have put it dead last (index 7).
  std::size_t last_b = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 'b') {
      last_b = i;
    }
  }
  EXPECT_LE(last_b, 4u) << std::string(order.begin(), order.end());
}

/// Iteration count for the windowed farm soak; CI exports
/// FPGAFU_FARM_SOAK_JOBS to scale it.
std::size_t farm_soak_jobs() {
  if (const char* env = std::getenv("FPGAFU_FARM_SOAK_JOBS")) {
    const long n = std::atol(env);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  return 24;
}

/// Acceptance soak: windowed shards over a link that drops, corrupts and
/// duplicates 5% of upstream words each must stay bit-identical to the
/// reference model.  Runs inside test_farm so the TSan CI job exercises it.
TEST(Farm, WindowedFaultSoakIsBitIdenticalToTheReferenceModel) {
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 8;
  msg::FaultConfig f;
  f.seed = 0xfa54;
  f.up.drop_ppm = 50'000;
  f.up.corrupt_ppm = 50'000;
  f.up.duplicate_ppm = 50'000;
  f.up.jitter_max = 3;
  f.down.jitter_max = 2;
  fc.system.link_faults = f;
  Farm farm(fc);

  const std::size_t jobs = farm_soak_jobs();
  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 2000; seed < 2000 + jobs; ++seed) {
    programs.push_back(selfcontained_program(seed));
    futures.push_back(farm.submit(programs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), jobs);
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
  // The soak must actually have exercised the retry machinery.
  EXPECT_GT(totals.get("transport.retries"), 0u);
}

// -- Jobs that share a window ------------------------------------------------
//
// The Coalesced* cases pin what several jobs riding one shard's window must
// get right: stateful sessions chaining through registers, a lone job at a
// deep window, reentrant submits on an inline farm, and faults.

/// Four stateful sessions on two windowed shards.  Each session's jobs
/// chain through its own accumulator register, so consecutive jobs of one
/// session inside one window read what the previous job wrote; jobs of the
/// other session on the same shard interleave with them.
TEST(Farm, CoalescedShardsMatchTheReferenceModel) {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kJobs = 8;
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 4;
  Farm farm(fc);
  std::vector<Farm::SessionId> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(farm.create_session());
  }
  ASSERT_EQ(farm.shard_of(sessions[0]), farm.shard_of(sessions[2]));

  std::vector<std::vector<std::future<std::vector<msg::Response>>>> futures(
      kSessions);
  for (std::size_t k = 0; k < kJobs; ++k) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      std::string in = "r";  // not "r" + ...: GCC 12 -Werror=restrict
      in += std::to_string(1 + 2 * s);
      std::string acc = "r";
      acc += std::to_string(2 + 2 * s);
      futures[s].push_back(farm.submit(
          sessions[s],
          isa::Assembler::assemble("PUT " + in + ", #" +
                                   std::to_string(k + 1 + 100 * s) + "\nADD " +
                                   acc + ", " + acc + ", " + in + "\nGET " +
                                   acc)));
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < kJobs; ++k) {
      acc += k + 1 + 100 * s;
      const std::vector<msg::Response> got = futures[s][k].get();
      ASSERT_EQ(got.size(), 1u) << "session " << s << " job " << k;
      EXPECT_EQ(got[0].type, msg::Response::Type::kData);
      EXPECT_EQ(got[0].payload, acc) << "session " << s << " job " << k;
    }
  }
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), kSessions * kJobs);
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
}

/// A lone job on a shard with a deep window is issued at once: the shard
/// never waits for the window to fill, and stays healthy for the next lone
/// job.
TEST(Farm, CoalescedPartialFrameFlushesOnTimerNotLivelock) {
  FarmConfig fc;
  fc.shards = 1;
  fc.transport.window = 16;
  Farm farm(fc);
  const isa::Program p = selfcontained_program(3001);
  EXPECT_EQ(farm.submit(p).get(), reference_run(p));
  const isa::Program q = selfcontained_program(3002);
  EXPECT_EQ(farm.submit(q).get(), reference_run(q));
  farm.shutdown();
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), 2u);
}

/// Simulated cycles an inline farm at `window` spends on job a, whose
/// callback submits b and c; all three must match the reference model.
std::uint64_t inline_reentrant_cycles(std::size_t window) {
  FarmConfig fc;
  fc.shards = 0;  // inline
  fc.transport.window = window;
  Farm farm(fc);
  const isa::Program a = selfcontained_program(3101);
  const isa::Program b = selfcontained_program(3102);
  const isa::Program c = selfcontained_program(3103);
  std::vector<std::vector<msg::Response>> got(3);
  // b and c are submitted from inside a's callback; the reentrancy guard
  // queues them, and the outer shard step issues them into one window.
  std::future<std::vector<msg::Response>> fb, fc_;
  farm.submit_async(a, [&](std::vector<msg::Response> r, std::exception_ptr) {
    got[0] = std::move(r);
    fb = farm.submit(b);
    fc_ = farm.submit(c);
  });
  got[1] = fb.get();
  got[2] = fc_.get();
  EXPECT_EQ(got[0], reference_run(a));
  EXPECT_EQ(got[1], reference_run(b));
  EXPECT_EQ(got[2], reference_run(c));
  farm.shutdown();
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), 3u);
  return farm.counters().get("farm.shard_cycles");
}

/// An inline farm drains reentrant submits through its window: at window 4
/// the two follow-up jobs share it and finish in fewer simulated cycles
/// than one after the other at window 1.
TEST(Farm, CoalescedInlineFarmDrainsReentrantSubmitsAsOneFrame) {
  const std::uint64_t windowed = inline_reentrant_cycles(4);
  const std::uint64_t sequential = inline_reentrant_cycles(1);
  EXPECT_LT(windowed, sequential);
}

/// A second fault soak: a narrower window of 4 over the same 5 % upstream
/// fault mix with a different fault seed.  Jobs sharing a window reuse the
/// same registers (selfcontained_program writes r1..r7), so bit-identical
/// results prove the per-register write barrier holds while the retry
/// machinery hammers the wire.  Runs inside test_farm so the TSan CI job
/// exercises it.
TEST(Farm, CoalescedFaultSoakIsBitIdenticalToTheReferenceModel) {
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 4;
  msg::FaultConfig f;
  f.seed = 0xc0a1;
  f.up.drop_ppm = 50'000;
  f.up.corrupt_ppm = 50'000;
  f.up.duplicate_ppm = 50'000;
  f.up.jitter_max = 3;
  f.down.jitter_max = 2;
  fc.system.link_faults = f;
  Farm farm(fc);

  const std::size_t jobs = farm_soak_jobs();
  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 2200; seed < 2200 + jobs; ++seed) {
    programs.push_back(selfcontained_program(seed));
    futures.push_back(farm.submit(programs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), jobs);
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
  EXPECT_GT(totals.get("transport.retries"), 0u);
}

// -- Several host CPUs on one shard ------------------------------------------
//
// The paper's "one or more CPUs" share one link to the functional units.
// The MultiHost cases model each CPU as a host thread holding its own
// session on one shard, and check that the sessions never see each other's
// responses.

/// Farm config of one shard at window 4, the shared link of several CPUs.
FarmConfig one_shared_shard() {
  FarmConfig fc;
  fc.shards = 1;
  fc.transport.window = 4;
  return fc;
}

TEST(MultiHost, TwoSessionsGetTheirOwnResponses) {
  Farm farm(one_shared_shard());
  const Farm::SessionId a = farm.create_session();
  const Farm::SessionId b = farm.create_session();
  ASSERT_EQ(farm.shard_of(a), farm.shard_of(b));

  // Sessions partition the register file: A uses r1..r3, B uses r4..r6.
  std::vector<msg::Response> ra;
  std::vector<msg::Response> rb;
  std::thread cpu_a([&] {
    ra = farm.submit(a, isa::Assembler::assemble(R"(
      PUT r1, #10
      PUT r2, #20
      ADD r3, r1, r2
      GET r3
    )")).get();
  });
  std::thread cpu_b([&] {
    rb = farm.submit(b, isa::Assembler::assemble(R"(
      PUT r4, #100
      PUT r5, #1
      SUB r6, r4, r5
      GET r6
    )")).get();
  });
  cpu_a.join();
  cpu_b.join();
  ASSERT_EQ(ra.size(), 1u);
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_EQ(ra[0].payload, 30u);
  EXPECT_EQ(rb[0].payload, 99u);
}

/// B has queued work; A's blocking call still completes with its own
/// result, and B's later read sees B's earlier computation.
TEST(MultiHost, SessionCallBlocksForItsOwnResults) {
  Farm farm(one_shared_shard());
  const Farm::SessionId a = farm.create_session();
  const Farm::SessionId b = farm.create_session();

  auto queued = farm.submit(
      b, isa::Assembler::assemble("PUT r8, #1\nPUT r9, #2\nADD r10, r8, r9"));
  const auto responses =
      farm.submit(a, isa::Assembler::assemble("PUT r1, #7\nGET r1")).get();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, 7u);
  const auto rb = farm.submit(b, isa::Assembler::assemble("GET r10")).get();
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb[0].payload, 3u);
  EXPECT_TRUE(queued.get().empty());  // pure writes: no responses
}

/// Six CPUs, each a thread with its own session and its own registers,
/// run ten jobs each on one shard; every result is the session's own.
TEST(MultiHost, ManySessionsInterleaveWithoutCrosstalk) {
  constexpr int kSessions = 6;
  constexpr int kRounds = 10;
  FarmConfig fc = one_shared_shard();
  fc.transport.window = 8;
  fc.system.rtm.data_regs = 64;
  Farm farm(fc);

  std::vector<Farm::SessionId> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(farm.create_session());
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> cpus;
  for (int s = 0; s < kSessions; ++s) {
    cpus.emplace_back([&, s] {
      // Session s owns registers 8s .. 8s+2.
      const int base = 8 * s;
      for (int r = 0; r < kRounds; ++r) {
        char src[256];
        std::snprintf(src, sizeof src,
                      "PUT r%d, #%d\nPUT r%d, #%d\nADD r%d, r%d, r%d\nGET r%d\n",
                      base, 1000 * r + s, base + 1, s, base + 2, base,
                      base + 1, base + 2);
        const auto got = farm.submit(sessions[static_cast<std::size_t>(s)],
                                     isa::Assembler::assemble(src))
                             .get();
        if (got.size() != 1 ||
            got[0].payload != static_cast<isa::Word>(1000 * r + 2 * s)) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : cpus) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
}

/// Whatever the interleaving, every session sees exactly its own
/// responses, in its own issue order.  Five CPU threads each submit forty
/// PUT/GET jobs on one register with session-tagged values, without
/// waiting, yielding a seeded random number of times between submits.
TEST(MultiHost, FuzzedInterleavingPreservesPerSessionStreams) {
  constexpr std::size_t kSessions = 5;
  constexpr std::size_t kPairs = 40;
  FarmConfig fc = one_shared_shard();
  fc.transport.window = 8;
  fc.queue_capacity = kSessions * kPairs;
  fc.system.rtm.data_regs = 16;
  Farm farm(fc);

  std::vector<Farm::SessionId> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(farm.create_session());
  }
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::vector<isa::Word>> got(kSessions);
  std::size_t done = 0;
  std::vector<std::thread> cpus;
  for (std::size_t s = 0; s < kSessions; ++s) {
    cpus.emplace_back([&, s] {
      Xoshiro256 rng(0x5e55 + s);
      for (std::size_t i = 0; i < kPairs; ++i) {
        isa::Program p;
        p.emit_put(static_cast<isa::RegNum>(s + 1), (s << 16) | i);
        isa::Instruction get;
        get.function = isa::fc::kRtm;
        get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
        get.src1 = static_cast<isa::RegNum>(s + 1);
        p.emit(get);
        farm.submit_async(
            sessions[s], std::move(p),
            [&, s](std::vector<msg::Response> rs, std::exception_ptr err) {
              std::lock_guard<std::mutex> lk(m);
              got[s].push_back(err || rs.size() != 1 ? ~isa::Word{0}
                                                     : rs[0].payload);
              ++done;
              cv.notify_all();
            });
        for (std::uint64_t y = rng.below(4); y > 0; --y) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : cpus) {
    t.join();
  }
  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kSessions * kPairs; });
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(got[s].size(), kPairs);
    for (std::size_t i = 0; i < kPairs; ++i) {
      ASSERT_EQ(got[s][i], (s << 16) | i)
          << "session " << s << " response " << i;
    }
  }
}

/// With a downlink that fits one instruction at a time, two loaded
/// sessions drain in lockstep and an idle third session between them
/// neither receives anything nor unbalances the rotation.  The jobs are
/// queued by a kick-off job's callback on an inline farm, all of session
/// A's ahead of all of session C's, so plain FIFO would serve A first.
TEST(MultiHost, BoundedLinkRoundRobinStaysFair) {
  constexpr std::size_t kGets = 24;
  FarmConfig fc;
  fc.shards = 0;  // inline: the queue is fixed when the step starts
  fc.transport.window = 4;
  fc.queue_capacity = 2 * kGets;
  fc.system.rtm.data_regs = 8;
  fc.system.link_down_capacity = 2;  // one GET (2 link words) fits at a time
  Farm farm(fc);
  const Farm::SessionId a = farm.create_session();
  farm.create_session();  // b: stays idle
  const Farm::SessionId c = farm.create_session();

  const auto get_of = [](isa::RegNum reg) {
    isa::Program p;
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = reg;
    p.emit(get);
    return p;
  };
  std::string order;
  const auto record = [&](char tag) {
    return [&order, tag](std::vector<msg::Response> rs, std::exception_ptr err) {
      order.push_back(err || rs.size() != 1 ? '!' : tag);
    };
  };
  farm.submit_async(isa::Program{},
                    [&](std::vector<msg::Response>, std::exception_ptr) {
                      for (std::size_t i = 0; i < kGets; ++i) {
                        farm.submit_async(a, get_of(1), record('a'));
                      }
                      for (std::size_t i = 0; i < kGets; ++i) {
                        farm.submit_async(c, get_of(2), record('c'));
                      }
                    });
  ASSERT_EQ(order.size(), 2 * kGets) << order;
  std::size_t a_done = 0;
  std::size_t c_done = 0;
  for (const char tag : order) {
    a_done += tag == 'a';
    c_done += tag == 'c';
    EXPECT_LE(a_done > c_done ? a_done - c_done : c_done - a_done, 1u)
        << order;
  }
  EXPECT_EQ(a_done, kGets) << order;
  EXPECT_EQ(c_done, kGets) << order;
  // Every job completed is the kick-off or one of a's and c's: idle b
  // received nothing.
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), 2 * kGets + 1);
}

/// A faulting CPU's error-only jobs share the shard's windows with a
/// healthy CPU's jobs: the error response reaches only the faulting
/// session's job, and the healthy session gets only data.
TEST(MultiHost, ErrorResponsesRouteToTheFaultingSession) {
  constexpr std::size_t kRounds = 8;
  Farm farm(one_shared_shard());
  const Farm::SessionId good = farm.create_session();
  const Farm::SessionId bad = farm.create_session();
  const isa::Program error_only = isa::Assembler::assemble("GET r200");

  std::atomic<int> wrong{0};
  std::thread faulting([&] {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const auto rs = farm.submit(bad, error_only).get();
      if (rs.size() != 1 || rs[0].type != msg::Response::Type::kError) {
        ++wrong;
      }
    }
  });
  std::thread healthy([&] {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const auto rs =
          farm.submit(good, isa::Assembler::assemble(
                                "PUT r1, #" + std::to_string(5 + i) +
                                "\nGET r1"))
              .get();
      if (rs.size() != 1 || rs[0].type != msg::Response::Type::kData ||
          rs[0].payload != 5 + i) {
        ++wrong;
      }
    }
  });
  faulting.join();
  healthy.join();
  EXPECT_EQ(wrong.load(), 0);
  farm.shutdown();
  EXPECT_EQ(farm.counters().get("farm.jobs_failed"), 0u);
}

}  // namespace
}  // namespace fpgafu::host

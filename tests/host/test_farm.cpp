#include "host/farm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
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
  {
    FarmConfig fc;
    fc.transport.max_backoff_factor = 0;
    EXPECT_THROW(Farm{fc}, SimError);
  }
  {
    FarmConfig fc;
    fc.stats_publish_interval = 0;
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

TEST(Farm, StreamingDeliversResponsesInProgramOrder) {
  FarmConfig fc;
  fc.shards = 1;
  fc.transport.window = 2;
  Farm farm(fc);

  const isa::Program p = selfcontained_program(5);
  std::mutex m;
  std::condition_variable cv;
  std::vector<msg::Response> streamed;
  bool finished = false;
  std::exception_ptr failure;
  farm.submit_stream(
      p,
      [&](const msg::Response& r) {
        std::lock_guard<std::mutex> lk(m);
        streamed.push_back(r);
      },
      [&](std::exception_ptr err) {
        std::lock_guard<std::mutex> lk(m);
        failure = err;
        finished = true;
        cv.notify_all();
      });
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return finished; });
  EXPECT_EQ(failure, nullptr);
  EXPECT_EQ(streamed, reference_run(p));
}

/// Bugfix regression (stats publishing): snapshots used to be copied under
/// the shard mutex after *every* job.  They are now amortised to one per
/// stats_publish_interval jobs (plus idle/final flushes), while the job
/// totals stay exact after shutdown.
TEST(Farm, StatsPublishingIsAmortisedAcrossJobs) {
  FarmConfig fc;
  fc.shards = 1;
  fc.stats_publish_interval = 16;
  fc.queue_capacity = 64;
  Farm farm(fc);
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 1500; seed < 1564; ++seed) {
    futures.push_back(farm.submit(selfcontained_program(seed)));
  }
  for (auto& f : futures) {
    f.get();
  }
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), 64u);
  const std::uint64_t publishes = totals.get("farm.stats_publishes");
  EXPECT_GE(publishes, 1u);
  // 64 jobs / interval 16 = 4 interval publishes, plus a handful of
  // idle/final flushes — far fewer than the old one-per-job.
  EXPECT_LE(publishes, 16u);
}

/// Bugfix regression (admission unification): the inline path used to
/// bypass queue_capacity and session accounting entirely.  It now refuses
/// with the same typed errors as the threaded path — and, having no worker
/// to wait for, sheds instead of blocking.
TEST(Farm, InlineAdmissionEnforcesSessionBoundsAndCapacity) {
  FarmConfig fc;
  fc.shards = 0;  // inline
  fc.max_inflight_per_session = 1;
  fc.queue_capacity = 1;
  Farm farm(fc);
  const Farm::SessionId s = farm.create_session();
  const isa::Program p = selfcontained_program(8);

  bool session_overload = false;
  bool capacity_overload = false;
  std::size_t nested_runs = 0;
  farm.submit_async(s, p, [&](std::vector<msg::Response> rs,
                              std::exception_ptr err) {
    EXPECT_EQ(err, nullptr);
    EXPECT_EQ(rs, reference_run(p));
    // The outer job is still unresolved while its callback runs, so the
    // session is at its bound of 1.
    EXPECT_EQ(farm.in_flight(s), 1u);
    try {
      farm.submit_async(s, p, [](std::vector<msg::Response>,
                                 std::exception_ptr) {});
    } catch (const FarmError& e) {
      session_overload = e.kind() == FarmError::Kind::kOverload;
    }
    // Session-less jobs dodge the session bound; the 1-deep queue then
    // sheds the second one.
    try {
      farm.submit_async(p, [&](std::vector<msg::Response>,
                               std::exception_ptr) { ++nested_runs; });
      farm.submit_async(p, [&](std::vector<msg::Response>,
                               std::exception_ptr) { ++nested_runs; });
    } catch (const FarmError& e) {
      capacity_overload = e.kind() == FarmError::Kind::kOverload;
    }
  });
  EXPECT_TRUE(session_overload);
  EXPECT_TRUE(capacity_overload);
  EXPECT_EQ(nested_runs, 1u);  // the queued reentrant job did run
  EXPECT_EQ(farm.in_flight(s), 0u);
  EXPECT_EQ(farm.counters().get("farm.jobs_shed"), 2u);
}

TEST(Farm, SessionInFlightBoundShedsWithTypedOverload) {
  FarmConfig fc;
  fc.shards = 1;
  fc.max_inflight_per_session = 2;
  Farm farm(fc);
  const Farm::SessionId s = farm.create_session();

  // The chunky job occupies the worker (1 unresolved), a second waits in
  // the queue (2 unresolved = the bound), so a third is refused.
  const isa::Program chunky = chunky_program(1000);
  const isa::Program small = selfcontained_program(9);
  auto f1 = farm.submit(s, chunky);
  auto f2 = farm.submit(s, small);
  try {
    farm.submit(s, small);
    FAIL() << "third submission must be refused at the session bound";
  } catch (const FarmError& e) {
    EXPECT_EQ(e.kind(), FarmError::Kind::kOverload);
  }
  EXPECT_EQ(f1.get(), reference_run(chunky));
  EXPECT_EQ(f2.get(), reference_run(small));
  // Both resolved: the bound has space again.
  EXPECT_EQ(farm.submit(s, small).get(), reference_run(small));
  EXPECT_GE(farm.counters().get("farm.jobs_shed"), 1u);
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

  // Occupy the worker so the queue forms behind it.
  auto stall = farm.submit(chunky_program(300));

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
  fc.transport.response_timeout = 500;
  fc.transport.max_attempts = 25;
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

// -- Coalesced submission frames ---------------------------------------------

TEST(Farm, CoalescedShardsMatchTheReferenceModel) {
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 4;
  fc.coalesce_max_programs = 8;
  fc.coalesce_flush_cycles = 64;
  Farm farm(fc);
  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 2100; seed < 2124; ++seed) {
    programs.push_back(selfcontained_program(seed));
    futures.push_back(farm.submit(programs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_completed"), programs.size());
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
}

TEST(Farm, CoalescedPartialFrameFlushesOnTimerNotLivelock) {
  // One lonely job with a large member cap: the worker holds the partial
  // frame open for coalesce_flush_cycles, then must flush it — the future
  // resolves instead of the shard spinning on an empty window forever.
  FarmConfig fc;
  fc.shards = 1;
  fc.coalesce_max_programs = 16;
  fc.coalesce_flush_cycles = 256;
  Farm farm(fc);
  const isa::Program p = selfcontained_program(3001);
  EXPECT_EQ(farm.submit(p).get(), reference_run(p));
  // And the shard stays healthy for the next lonely job.
  const isa::Program q = selfcontained_program(3002);
  EXPECT_EQ(farm.submit(q).get(), reference_run(q));
  farm.shutdown();
  EXPECT_EQ(farm.counters().get("farm.jobs_completed"), 2u);
}

TEST(Farm, CoalescedInlineFarmDrainsReentrantSubmitsAsOneFrame) {
  FarmConfig fc;
  fc.shards = 0;  // inline
  fc.coalesce_max_programs = 4;
  Farm farm(fc);
  const isa::Program a = selfcontained_program(3101);
  const isa::Program b = selfcontained_program(3102);
  const isa::Program c = selfcontained_program(3103);
  std::vector<std::vector<msg::Response>> got(3);
  // b and c are submitted from inside a's callback, so the outer drain
  // frame pops them together — the inline coalescing path proper.
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
}

/// The coalesced counterpart of the windowed fault soak: members of one
/// frame chain through the SAME registers (selfcontained_program reuses
/// r1..r7), so bit-identical results prove the per-register write barrier
/// holds inside frames while the retry machinery hammers the wire.  Runs
/// inside test_farm so the TSan CI job exercises it under every settle
/// kernel.
TEST(Farm, CoalescedFaultSoakIsBitIdenticalToTheReferenceModel) {
  FarmConfig fc;
  fc.shards = 2;
  fc.transport.window = 4;
  fc.transport.response_timeout = 500;
  fc.transport.max_attempts = 25;
  fc.coalesce_max_programs = 8;
  fc.coalesce_flush_cycles = 64;
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

}  // namespace
}  // namespace fpgafu::host

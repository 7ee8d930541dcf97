// Experiment E10: multi-System coprocessor farm throughput scaling.
//
// The paper's arrangement is "one or more CPUs communicate via the
// interface with a set of functional units"; host::Farm scales that out to
// N independent System shards, one worker thread each.  Because shards
// share nothing (each owns its whole simulated fabric), aggregate program
// throughput should scale near-linearly with shards up to the core count —
// this bench measures programs/second for 1..hardware_concurrency shards
// and cross-checks every shard's responses bit-identically against
// host::ReferenceModel.
//
// Second axis: the transport window.  window=1 is the call-and-wait
// baseline (one round trip per job); window>1 keeps that many programs in
// flight per shard, so the queue/pump overhead between jobs amortises and
// a shard's wire never goes idle between programs.  The read-stream and
// tiny-program rows report simulated cycles per job, which CI's perf-smoke
// step gates on.

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "host/farm.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "util/rng.hpp"

namespace {

using namespace fpgafu;

/// Self-contained job: writes every register it reads, so its response
/// stream is reference-checkable no matter what earlier jobs left in the
/// shard's register file.  ~56 instructions of PUT/ALU/GET traffic.
isa::Program farm_job(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string src;
  for (int round = 0; round < 8; ++round) {
    for (int r = 1; r <= 4; ++r) {
      src += "PUT r" + std::to_string(r) + ", #" +
             std::to_string(rng.below(1u << 20)) + "\n";
    }
    src += "ADD r5, r1, r2\nSUB r6, r3, r4\nADD r7, r5, r6\n";
    src += "GET r5\nGET r6\nGET r7\n";
  }
  return isa::Assembler::assemble(src);
}

constexpr std::uint64_t kJobSeeds = 16;
constexpr std::size_t kJobsPerIteration = 64;

/// Status-poll job against session register state: two GETs (think "poll
/// the completion flag, fetch the result register"), no writes.  Read
/// groups carry no write barrier, so with window > 1 the transport issues
/// the next poll's GETs while the previous poll's responses are still
/// crossing the return link — the full link round trip a call-and-wait
/// loop pays at every job boundary pipelines away (measured on this
/// fabric: 16 cycles/poll at window=1 vs 8 at window>=8).
isa::Program poll_job() { return isa::Assembler::assemble("GET r1\nGET r7\n"); }

/// Aggregate throughput at `state.range(0)` shards with a transport
/// window of `state.range(1)` programs in flight per shard.  Every
/// response is compared against the reference model — a mismatch aborts
/// the bench.
void BM_FarmThroughput(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const std::size_t window = static_cast<std::size_t>(state.range(1));
  host::FarmConfig fc;
  fc.shards = shards;
  fc.transport.window = window;
  fc.queue_capacity = 2 * kJobsPerIteration;
  host::Farm farm(fc);

  std::vector<isa::Program> programs;
  std::vector<std::vector<msg::Response>> expected;
  for (std::uint64_t s = 0; s < kJobSeeds; ++s) {
    programs.push_back(farm_job(0xfa12'0000 + s));
    expected.push_back(
        host::ReferenceModel(top::SystemConfig{}.rtm).run(programs.back()));
  }

  std::uint64_t jobs = 0;
  for (auto _ : state) {
    std::vector<std::future<std::vector<msg::Response>>> futures;
    futures.reserve(kJobsPerIteration);
    for (std::size_t i = 0; i < kJobsPerIteration; ++i) {
      futures.push_back(farm.submit(programs[i % kJobSeeds]));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      if (futures[i].get() != expected[i % kJobSeeds]) {
        state.SkipWithError("farm response diverged from ReferenceModel");
        return;
      }
    }
    jobs += futures.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["window"] = static_cast<double>(window);
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

/// Iterations of the stream rows.  Fixed, as the algod sweep's are, so
/// cycles_per_job (which spreads each iteration's kick-off and idle tail
/// over its jobs) is an exact count, not one that moves with the number
/// of iterations the host's speed buys.
constexpr int kStreamIterations = 200;

/// Windowed pipelining win on a read-mostly session: one setup job PUTs
/// r1..r7, then every measured job is a two-GET status poll on that
/// session.  Each iteration starts from one kick-off poll whose completion
/// callback submits the rest, so every arrival is keyed to a completion on
/// the worker thread and cycles_per_job depends only on the window.
/// window=1 is call-and-wait (each poll pays a full link round trip);
/// deeper windows overlap issue with response return.  CI's perf-smoke
/// gates on this row's cycles_per_job (kStreamIterations).
void BM_FarmReadStream(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const std::size_t kPollsPerIteration = 256;
  host::FarmConfig fc;
  fc.shards = 1;
  fc.transport.window = window;
  fc.queue_capacity = 2 * kPollsPerIteration;
  host::Farm farm(fc);
  const host::Farm::SessionId session = farm.create_session();

  Xoshiro256 rng(0xfa12'bead);
  std::string setup_src;
  for (int r = 1; r <= 7; ++r) {
    setup_src += "PUT r" + std::to_string(r) + ", #" +
                 std::to_string(rng.below(1u << 20)) + "\n";
  }
  // The SYNC answers once every PUT has landed, so the set-up job does not
  // complete while its words are still on the link and the set-up clock
  // read below covers all of it.
  setup_src += "SYNC\n";
  const isa::Program setup = isa::Assembler::assemble(setup_src);
  const isa::Program poll = poll_job();

  // Expected responses of one poll: the GETs return the setup values, and
  // the transport renumbers each job's responses from 0 in program order.
  host::ReferenceModel model(top::SystemConfig{}.rtm);
  model.run(setup);
  std::vector<msg::Response> expected;
  for (int r : {1, 7}) {
    msg::Response resp;
    resp.type = msg::Response::Type::kData;
    resp.seq = static_cast<std::uint16_t>(expected.size());
    resp.payload = model.reg(static_cast<isa::RegNum>(r));
    expected.push_back(resp);
  }
  farm.submit(session, setup).get();
  // Exact: counters() refreshes a shard whose last future has resolved.
  const std::uint64_t setup_cycles =
      farm.counters().get("farm.shard_cycles");

  std::uint64_t jobs = 0;
  std::mutex m;
  std::condition_variable cv;
  for (auto _ : state) {
    std::size_t done = 0;
    std::size_t wrong = 0;
    auto on_done = [&](std::vector<msg::Response> rs, std::exception_ptr err) {
      std::lock_guard<std::mutex> lk(m);
      if (err || rs != expected) {
        ++wrong;
      }
      if (++done == kPollsPerIteration) {
        cv.notify_one();
      }
    };
    farm.submit_async(session, poll,
                      [&](std::vector<msg::Response> rs,
                          std::exception_ptr err) {
                        for (std::size_t i = 1; i < kPollsPerIteration; ++i) {
                          farm.submit_async(session, poll, on_done);
                        }
                        on_done(std::move(rs), err);
                      });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kPollsPerIteration; });
    if (wrong != 0) {
      state.SkipWithError("poll stream diverged from the setup registers");
      return;
    }
    jobs += kPollsPerIteration;
  }
  farm.shutdown();  // reads now return the snapshot the worker left
  const std::uint64_t cycles =
      farm.counters().get("farm.shard_cycles") - setup_cycles;
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["window"] = static_cast<double>(window);
  state.counters["cycles_per_job"] =
      jobs > 0 ? static_cast<double>(cycles) / static_cast<double>(jobs) : 0.0;
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

/// Experiments E16/E19/E20: tiny-program streams.  Twelve sessions each
/// own a disjoint register pair and stream three-instruction jobs
/// (PUT / ADD / GET).  Jobs from different sessions are register-disjoint,
/// so the per-register write barrier finds no conflicts: with a window
/// deeper than one the jobs stream back to back at the downlink floor
/// (about 6 cycles/job: the PUT is one PUTI word).  Window 1 is
/// call-and-wait.  Each iteration
/// starts from one kick-off job whose completion callback submits the
/// rest, so cycles_per_job = farm.shard_cycles / jobs depends only on the
/// window (at kStreamIterations); CI's perf-smoke step puts a ceiling on
/// it.
void BM_FarmTinyProgramStream(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSessions = 12;
  constexpr std::size_t kTinyJobsPerIteration = 192;
  host::FarmConfig fc;
  fc.shards = 1;
  fc.transport.window = window;
  fc.queue_capacity = 2 * kTinyJobsPerIteration;
  host::Farm farm(fc);

  struct Sess {
    host::Farm::SessionId id;
    isa::Program program;
    std::vector<msg::Response> expected;
  };
  Xoshiro256 rng(0xfa12'71e9);
  std::vector<Sess> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    // Session i owns registers r(2i+1)/r(2i+2): no two sessions' jobs
    // touch a common register.
    const int a = static_cast<int>(1 + 2 * i);
    const int b = a + 1;
    Sess s;
    s.id = farm.create_session();
    s.program = isa::Assembler::assemble(
        "PUT r" + std::to_string(a) + ", #" +
        std::to_string(rng.below(1u << 20)) + "\nADD r" + std::to_string(b) +
        ", r" + std::to_string(a) + ", r" + std::to_string(a) + "\nGET r" +
        std::to_string(b));
    s.expected = host::ReferenceModel(top::SystemConfig{}.rtm).run(s.program);
    sessions.push_back(std::move(s));
  }

  std::uint64_t jobs = 0;
  std::mutex m;
  std::condition_variable cv;
  for (auto _ : state) {
    std::size_t done = 0;
    std::size_t wrong = 0;
    auto on_done = [&](std::size_t who) {
      return [&, who](std::vector<msg::Response> rs, std::exception_ptr err) {
        std::lock_guard<std::mutex> lk(m);
        if (err || rs != sessions[who].expected) {
          ++wrong;
        }
        if (++done == kTinyJobsPerIteration) {
          cv.notify_one();
        }
      };
    };
    farm.submit_async(sessions[0].id, sessions[0].program,
                      [&](std::vector<msg::Response> rs,
                          std::exception_ptr err) {
                        for (std::size_t i = 1; i < kTinyJobsPerIteration;
                             ++i) {
                          const std::size_t who = i % kSessions;
                          farm.submit_async(sessions[who].id,
                                            sessions[who].program,
                                            on_done(who));
                        }
                        on_done(0)(std::move(rs), err);
                      });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kTinyJobsPerIteration; });
    if (wrong != 0) {
      state.SkipWithError("tiny-program stream diverged from ReferenceModel");
      return;
    }
    jobs += kTinyJobsPerIteration;
  }
  farm.shutdown();  // reads now return the snapshot the worker left
  const std::uint64_t cycles = farm.counters().get("farm.shard_cycles");
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["window"] = static_cast<double>(window);
  state.counters["cycles_per_job"] =
      jobs > 0 ? static_cast<double>(cycles) / static_cast<double>(jobs) : 0.0;
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

void register_shard_sweep() {
  auto* b = benchmark::RegisterBenchmark("BM_FarmThroughput", BM_FarmThroughput)
                ->Unit(benchmark::kMillisecond)
                ->UseRealTime()
                ->MeasureProcessCPUTime();
  // Window sweep at one shard: pins the pipelining win over the window=1
  // call-and-wait baseline without thread-scaling noise.
  for (long w : {1, 2, 4, 8, 16, 32}) {
    b->Args({1, w});
  }
  // Shard sweep (powers of two up to the core count, always covering at
  // least 1/2/4 shards so the multi-shard paths are exercised even on
  // small runners), at both the baseline and a deep window — shows the
  // two axes compose.
  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  for (unsigned s = 2; s <= hw; s *= 2) {
    b->Args({static_cast<long>(s), 1});
    b->Args({static_cast<long>(s), 16});
  }
  if ((hw & (hw - 1)) != 0) {
    b->Args({static_cast<long>(hw), 1});  // the exact core count too
    b->Args({static_cast<long>(hw), 16});
  }

  auto* rs = benchmark::RegisterBenchmark("BM_FarmReadStream", BM_FarmReadStream)
                 ->Unit(benchmark::kMillisecond)
                 ->UseRealTime()
                 ->MeasureProcessCPUTime()
                 ->Iterations(kStreamIterations);
  for (long w : {1, 2, 4, 8, 16, 32}) {
    rs->Arg(w);
  }

  auto* ts = benchmark::RegisterBenchmark("BM_FarmTinyProgramStream",
                                          BM_FarmTinyProgramStream)
                 ->Unit(benchmark::kMillisecond)
                 ->UseRealTime()
                 ->MeasureProcessCPUTime()
                 ->Iterations(kStreamIterations);
  for (long w : {1, 4, 8, 32}) {
    ts->Arg(w);
  }
}

}  // namespace

int main(int argc, char** argv) {
  fpgafu::bench::init(&argc, argv);
  fpgafu::bench::section(
      "E10", "farm throughput scaling (programs/s vs shards x window)");
  fpgafu::bench::note(
      "every job's responses are checked bit-identical against "
      "host::ReferenceModel; items_per_second is aggregate programs/s");
  fpgafu::bench::note("hardware_concurrency = " +
                      std::to_string(std::thread::hardware_concurrency()));
  register_shard_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// tiny_stream: one Farm shard (transport window 8, no coalescing — the
// default FarmConfig path) serving twelve register-disjoint sessions of
// three-instruction write-leading jobs (PUT/ADD/GET) in a closed loop.  Host
// transport and the farm hand-off do most of the work at about 17 simulated
// cycles per job; the simulator does little.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "host/farm.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace fpgafu;
using SessionId = host::Farm::SessionId;

constexpr std::size_t kSessions = 12;
constexpr std::size_t kOutstandingPerSession = 2;
constexpr std::size_t kPrograms = 8;  // distinct programs per session
constexpr std::size_t kWindow = 8;

host::FarmConfig farm_config() {
  host::FarmConfig fc;
  fc.shards = 1;
  fc.transport.window = kWindow;
  // Larger than the jobs a closed loop keeps outstanding, so a callback's
  // resubmission never blocks on admission.
  fc.queue_capacity = 64;
  return fc;
}

/// Every session's programs and their expected responses (the transport
/// renumbers each job's responses from 0, as ReferenceModel::run does).
struct Jobs {
  std::vector<std::vector<isa::Program>> programs;  ///< [session][k]
  std::vector<std::vector<std::vector<msg::Response>>> expected;

  explicit Jobs(std::uint64_t seed)
      : programs(kSessions), expected(kSessions) {
    Xoshiro256 rng(seed);
    for (std::size_t s = 0; s < kSessions; ++s) {
      // Session s owns r(2s+1) and r(2s+2): no two sessions share a register.
      std::string a = "r";
      a += std::to_string(2 * s + 1);
      std::string b = "r";
      b += std::to_string(2 * s + 2);
      for (std::size_t k = 0; k < kPrograms; ++k) {
        programs[s].push_back(isa::Assembler::assemble(
            "PUT " + a + ", #" + std::to_string(rng.below(1u << 20)) +
            "\nADD " + b + ", " + a + ", " + a + "\nGET " + b));
        expected[s].push_back(
            host::ReferenceModel(top::SystemConfig{}.rtm).run(programs[s].back()));
      }
    }
  }

  const isa::Program& program(std::uint64_t key) const {
    return programs[key % kSessions][(key / kSessions) % kPrograms];
  }
  const std::vector<msg::Response>& expect(std::uint64_t key) const {
    return expected[key % kSessions][(key / kSessions) % kPrograms];
  }
};

/// Closed-loop client: every session keeps kOutstandingPerSession jobs in
/// flight and resubmits from its completion callback.  The rep starts with a
/// single job whose callback submits the rest, so after the first submit
/// every arrival is made on the shard's worker thread, keyed to a
/// completion — the job sequence, and so the simulated cycle count, does not
/// depend on thread timing.
class ClosedLoop {
 public:
  ClosedLoop(host::Farm& farm, const Jobs& jobs) : farm_(farm), jobs_(jobs) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions_.push_back(farm.create_session());
    }
  }

  /// Run `n` jobs; returns once every callback ran.  Latencies (µs) are
  /// appended to `latency_us`; with `time_submits`, the duration of every
  /// submit_async call (ns) to `submit_ns`.  `order` receives the job keys in
  /// completion order.
  void run(std::size_t n, bool time_submits) {
    target_ = n;
    submitted_ = 0;
    completed_ = 0;
    time_submits_ = time_submits;
    t_submit_.assign(n, 0);
    order.clear();
    order.reserve(n);
    finished_ = false;
    // The kick-off's callback may run (and submit) before submit_async
    // returns here, so its duration is recorded only once the rep is over.
    const double kickoff_ns = submit_next(0);
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return finished_; });
    if (time_submits_) {
      submit_ns.push_back(kickoff_ns);
    }
  }

  std::vector<double> latency_us;
  std::vector<double> submit_ns;
  std::vector<std::uint64_t> order;
  std::uint64_t failed = 0;

 private:
  /// Submit the next job of `session`; returns how long submit_async took.
  double submit_next(std::size_t session) {
    const std::size_t idx = submitted_++;
    const std::uint64_t key = idx * kSessions + session;
    t_submit_[idx] = now_ns();
    try {
      farm_.submit_async(sessions_[session], jobs_.program(key),
                         [this, key](std::vector<msg::Response> rs,
                                     std::exception_ptr err) {
                           on_done(key, rs, err);
                         });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: submit_async refused: %s\n", e.what());
      ++failed;
      complete_one();
    }
    return static_cast<double>(now_ns() - t_submit_[idx]);
  }

  void submit_from_worker(std::size_t session) {
    const double ns = submit_next(session);
    if (time_submits_) {
      submit_ns.push_back(ns);
    }
  }

  void on_done(std::uint64_t key, const std::vector<msg::Response>& rs,
               const std::exception_ptr& err) {
    const std::size_t idx = key / kSessions;
    const std::size_t session = key % kSessions;
    latency_us.push_back(1e-3 * static_cast<double>(now_ns() - t_submit_[idx]));
    order.push_back(key);
    if (err || rs != jobs_.expect(key)) {
      ++failed;
    }
    if (idx == 0) {
      // The kick-off job: fill every session's share of the loop.
      for (std::size_t s = 0; s < kSessions; ++s) {
        for (std::size_t k = s == 0 ? 1 : 0; k < kOutstandingPerSession; ++k) {
          if (submitted_ < target_) {
            submit_from_worker(s);
          }
        }
      }
    }
    if (submitted_ < target_) {
      submit_from_worker(session);
    }
    complete_one();
  }

  void complete_one() {
    if (++completed_ == target_) {
      std::lock_guard<std::mutex> lk(m_);
      finished_ = true;
      cv_.notify_one();
    }
  }

  host::Farm& farm_;
  const Jobs& jobs_;
  std::vector<SessionId> sessions_;
  // Touched by the submitting thread before the first submit_async and after
  // finished_, by the shard's worker thread in between.
  std::size_t target_ = 0;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  bool time_submits_ = false;
  std::vector<std::uint64_t> t_submit_;
  std::mutex m_;
  std::condition_variable cv_;
  bool finished_ = false;  ///< under m_
};

/// The farm with its client.  `cycles()` reads the shard clock once the
/// worker has published every completed job (it publishes on going idle).
struct Served {
  host::Farm farm{farm_config()};
  ClosedLoop loop;
  std::uint64_t jobs_done = 0;

  explicit Served(const Jobs& jobs) : loop(farm, jobs) {}

  double rep(std::size_t n, bool time_submits, std::vector<double>& cycles) {
    const Clock::time_point t0 = Clock::now();
    loop.run(n, time_submits);
    const double wall = seconds_since(t0);
    jobs_done += n;
    cycles.push_back(static_cast<double>(shard_cycles()));
    return wall;
  }

  std::uint64_t shard_cycles() const {
    for (;;) {
      const sim::Counters c = farm.counters();
      if (c.get("farm.jobs_completed") + c.get("farm.jobs_failed") >= jobs_done) {
        return c.get("farm.shard_cycles");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
};

/// Per-rep cycle deltas from a series of cumulative shard clocks that
/// starts with the clock before the first rep.
std::vector<double> deltas(const std::vector<double>& cumulative) {
  std::vector<double> d;
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    d.push_back(cumulative[i] - cumulative[i - 1]);
  }
  return d;
}

/// The farm worker's calls, made from this thread: the same job sequence
/// through ReliableTransport::submit/service/poll_completed and
/// Simulator::step on a System of the same configuration, a span around
/// each call.
struct Replay {
  std::unique_ptr<top::System> sys;
  std::unique_ptr<host::Coprocessor> copro;
  std::unique_ptr<host::ReliableTransport> transport;
  double construct_ms = 0.0;
  Span driver, submit, service, poll, step;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t useful = 0;

  Replay() {
    const host::FarmConfig fc = farm_config();
    const Clock::time_point t0 = Clock::now();
    sys = std::make_unique<top::System>(fc.system);
    construct_ms = 1e3 * seconds_since(t0);
    copro = std::make_unique<host::Coprocessor>(*sys);
    transport = std::make_unique<host::ReliableTransport>(*copro, fc.transport);
  }

  /// Zero the spans and switch them on or off.
  void set_traced(bool on) {
    for (Span* s : {&driver, &submit, &service, &poll, &step}) {
      *s = Span{};
      s->enabled = on;
    }
    useful = 0;
  }

  /// Replay `keys` (in farm issue order); returns wall seconds.
  double run(const Jobs& jobs, const std::vector<std::uint64_t>& keys) {
    host::Driver& drv = copro->driver();
    sim::Simulator& sim = sys->simulator();
    std::size_t next = 0;
    std::size_t done = 0;
    const auto refill = [&] {
      while (!transport->window_full() && next < keys.size()) {
        submit.time([&] { return transport->submit(jobs.program(keys[next])); });
        ++next;
      }
    };
    const Clock::time_point t0 = Clock::now();
    refill();
    while (done < keys.size()) {
      driver.time([&] { drv.service(); });
      service.time([&] { transport->service(); });
      bool completed = false;
      while (auto c = poll.time([&] { return transport->poll_completed(); })) {
        const auto& want = jobs.expect(keys[done]);
        ++attempted;
        failed += c->responses == want ? 0 : 1;
        useful += want.size();
        ++done;
        completed = true;
      }
      if (completed || (!transport->window_full() && next < keys.size())) {
        refill();
        continue;
      }
      step.time([&] { sim.step(); });
    }
    return seconds_since(t0);
  }
};

}  // namespace

Report run_tiny_stream(const Options& opt) {
  const std::size_t rep_jobs = opt.smoke ? 96 : 2048;
  // 128, not more: a fresh farm's first thousand jobs ran 25% slower in
  // some processes than in others, which made longer set-ups bimodal.
  const std::size_t warm_jobs = opt.smoke ? 48 : 128;
  const std::size_t setups = opt.smoke ? 2 : 25;

  Report report;
  report.note("jobs_per_rep", std::to_string(rep_jobs));
  const Jobs jobs(opt.seed);
  EndToEnd e2e;

  // Set-up: farm construction (its worker builds the System), sessions and
  // a warm-up rep; repeated, each one calibrated.  The previous farm is torn
  // down before the clock starts.  The last farm is measured.
  std::unique_ptr<Served> served;
  std::vector<double> cumulative;
  for (std::size_t i = 0; i < setups; ++i) {
    served.reset();
    e2e.calibrate();
    const Clock::time_point t0 = Clock::now();
    served = std::make_unique<Served>(jobs);
    cumulative.clear();
    served->rep(warm_jobs, false, cumulative);
    e2e.add_setup(seconds_since(t0));
  }
  Served& s = *served;
  s.loop.failed = 0;

  // One phase of reps: untraced ones go to e2e, traced ones (every
  // submit_async timed) to traced_wall.
  std::vector<double> traced_wall;
  const auto phase = [&](double seconds, bool traced) {
    std::vector<double> clock{static_cast<double>(s.shard_cycles())};
    repeat_for(seconds, 3, [&] {
      if (!traced) {
        e2e.calibrate();
      }
      s.loop.latency_us.clear();
      const double wall = s.rep(rep_jobs, traced, clock);
      if (traced) {
        traced_wall.push_back(wall);
      } else {
        e2e.add_rep(wall);
        e2e.add_latencies(s.loop.latency_us);
      }
    });
    return deltas(clock);
  };
  const auto per_rep_cycles = [&](const std::vector<double>& cycles) {
    const double c = median(cycles);
    for (const double x : cycles) {
      report.expect(x == c, "tiny_stream: a rep's cycle count differs");
    }
    return c;
  };

  const std::vector<double>& rep_wall = e2e.rep_wall_s;
  const double cycles =
      per_rep_cycles(phase(opt.trace ? opt.seconds / 3 : opt.seconds, false));
  const auto n = static_cast<double>(rep_jobs);
  report.attempted += static_cast<std::uint64_t>(rep_wall.size()) * rep_jobs;

  if (!opt.trace) {
    report.failed += s.loop.failed;
    e2e.jobs_per_rep = n;
    e2e.sim_cycles = cycles;
    add_end_to_end(report, e2e);
    return report;
  }

  // Traced part 1: the same farm run, every submit_async timed.
  s.loop.submit_ns.clear();
  const double cpu0 = process_cpu_s();
  const Clock::time_point tf = Clock::now();
  const double traced_cycles = per_rep_cycles(phase(opt.seconds / 3, true));
  const double farm_wall = seconds_since(tf);
  const double cpu = process_cpu_s() - cpu0;
  report.attempted += static_cast<std::uint64_t>(traced_wall.size()) * rep_jobs;
  report.failed += s.loop.failed;
  report.expect(traced_cycles == cycles,
                "tiny_stream: timing submit_async changed the cycle count");
  const std::vector<std::uint64_t> keys = s.loop.order;
  const host::LatencyPercentiles queue =
      host::latency_percentiles(s.farm.job_latency_samples());

  // Traced part 2: single-thread replay of the last rep's job sequence,
  // first untimed (the wall time the farm is compared with), then traced.
  Replay replay;
  replay.set_traced(false);
  std::vector<double> plain_wall;
  repeat_for(opt.seconds / 6, 3,
             [&] { plain_wall.push_back(replay.run(jobs, keys)); });
  replay.set_traced(true);
  const FabricCounters before = FabricCounters::read(*replay.sys);
  const std::uint64_t received0 = replay.copro->responses_received();
  std::vector<double> replay_wall;
  std::vector<double> replay_cycles;
  const Clock::time_point tr = Clock::now();
  repeat_for(opt.seconds / 6, 3, [&] {
    const std::uint64_t c0 = replay.sys->simulator().cycle();
    replay_wall.push_back(replay.run(jobs, keys));
    replay_cycles.push_back(
        static_cast<double>(replay.sys->simulator().cycle() - c0));
  });
  const double replay_ns = 1e9 * seconds_since(tr);
  const FabricCounters delta = FabricCounters::read(*replay.sys) - before;
  const double replayed = n * static_cast<double>(replay_wall.size());
  report.attempted += replay.attempted;
  report.failed += replay.failed;

  Layers l;
  l.set_fabric(delta, replayed, replay.step, replay_ns);
  const auto cyc = static_cast<double>(delta.cycle);
  l.driver_ns_per_cycle = ratio(static_cast<double>(replay.driver.ns), cyc);
  l.transport_submit_ns_per_job =
      ratio(static_cast<double>(replay.submit.ns), replayed);
  l.transport_service_ns_per_cycle =
      ratio(static_cast<double>(replay.service.ns), cyc);
  l.transport_poll_ns_per_job = ratio(static_cast<double>(replay.poll.ns), replayed);
  l.transport_retries = static_cast<double>(
      replay.transport->counters().get("transport.retries"));
  l.transport_goodput_ratio =
      ratio(static_cast<double>(replay.useful),
            static_cast<double>(replay.copro->responses_received() - received0));
  l.farm_submit_ns_p50 = percentile(s.loop.submit_ns, 0.5);
  l.farm_self_ns_per_job =
      1e9 * (median(traced_wall) - median(plain_wall)) / n;
  l.farm_queue_latency_cycles_p50 = static_cast<double>(queue.p50);
  l.farm_queue_latency_cycles_p99 = static_cast<double>(queue.p99);
  l.farm_cpu_per_wall = ratio(cpu, farm_wall);
  l.farm_cycles_per_job = cycles / n;
  l.system_construct_ms = replay.construct_ms;
  l.untraced_wall_s = median(rep_wall);
  l.traced_wall_s = median(traced_wall);
  l.untraced_cycles_per_job = cycles / n;
  l.traced_cycles_per_job = median(replay_cycles) / n;
  report.note("replay_wall_s", median(plain_wall));
  report.note("replay_traced_wall_s", median(replay_wall));
  add_layers(report, l);
  return report;
}

}  // namespace perfbench

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "msg/response.hpp"
#include "sim/simulator.hpp"
#include "top/system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and a short run, for the smoke test.
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the job tally, the metrics of the
/// requested run (end-to-end with trace off, per-layer with trace on) and
/// free-form context printed on the line before the result.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Cleared by any self-check that is not a job result (a cycle count that
  /// should repeat and does not, a traced loop that diverges).
  bool consistent = true;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
  void note(std::string key, double value);
  /// Record a self-check; a failed one clears `consistent`.
  void expect(bool ok, const std::string& what);
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set size of this process, MiB.
double peak_rss_mb();
/// CPU time consumed by every thread of this process, seconds.
double process_cpu_s();

/// Derive an independent 64-bit stream seed from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// The settle kernel a freshly constructed Simulator selects.  The
/// benchmark never chooses one: whatever the library makes the default is
/// what it measures.
fpgafu::sim::Simulator::Kernel default_kernel();

/// Response streams equal up to a constant sequence-number offset: every
/// field matches except `seq`, which may differ from the expectation by the
/// same amount (mod 2^16) on every response.  A long-lived System keeps
/// numbering where its previous call stopped; the reference model restarts.
bool same_responses(const std::vector<fpgafu::msg::Response>& got,
                    const std::vector<fpgafu::msg::Response>& expected);

/// Call `rep` until at least `min_reps` calls were made and `seconds` have
/// passed.
template <class F>
void repeat_for(double seconds, std::size_t min_reps, F&& rep) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t reps = 0; reps < min_reps || seconds_since(t0) < seconds;
       ++reps) {
    rep();
  }
}

/// Accumulating span timer for one layer's calls.  A disabled span calls
/// straight through, so one loop serves the traced and the untraced run.
struct Span {
  std::uint64_t ns = 0;
  bool enabled = true;

  template <class F>
  decltype(auto) time(F&& f) {
    if (!enabled) {
      return f();
    }
    const std::uint64_t t0 = now_ns();
    struct Stop {
      Span* s;
      std::uint64_t t0;
      ~Stop() { s->ns += now_ns() - t0; }
    } stop{this, t0};
    return f();
  }
};

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Host-speed calibration.  The host is shared, and its speed changes from
/// second to second and from minute to minute by up to about 1.7x, so raw
/// times move from one run to the next by more than any statistic inside a
/// run can remove.  A fixed loop of the benchmark's own, which runs no
/// library code, is timed right before every set-up and every rep, and that
/// timing is scaled by kReferencePassS / (the loop's pass time), so it reads
/// in seconds of a host running at the speed the benchmark was sized on.  A
/// change to the library cannot move the loop, so it moves a scaled time by
/// the same share as the raw one.
struct Calibration {
  /// The pass time on the host the benchmark was sized on.
  static constexpr double kReferencePassS = 0.62e-3;

  /// Time a few passes of the loop; returns the median pass time.
  static double sample();
};

/// End-to-end figures every workload reports (trace off).  A job is one
/// top-level host request: a Farm job (tiny_stream), a `hpcc::run_*` call
/// (hpcc) or a `Coprocessor::call` (wide_fu).  A rep is a fixed batch of
/// jobs.  Every set-up and rep is timed right after a calibration sample;
/// the bounded times are low percentiles of the scaled set-ups and reps of
/// one run (see README.md).  Latency percentiles (tiny_stream only) are
/// taken within each rep and then the median over reps is noted, so a slow
/// moment moves a few reps rather than the run's tail.
struct EndToEnd {
  std::vector<double> setup_s;       ///< raw, one per set-up
  std::vector<double> setup_pass_s;  ///< calibration before each set-up
  std::vector<double> rep_wall_s;    ///< raw, one per rep
  std::vector<double> rep_pass_s;    ///< calibration before each rep
  double jobs_per_rep = 0.0;
  double sim_cycles = 0.0;  ///< simulated cycles of one rep
  std::vector<double> rep_p50_us;
  std::vector<double> rep_p99_us;
  std::size_t latency_samples = 0;

  /// Sample the calibration loop; the next set-up or rep is scaled by it.
  void calibrate() { pass_s_ = Calibration::sample(); }
  void add_setup(double seconds) {
    setup_s.push_back(seconds);
    setup_pass_s.push_back(pass_s_);
  }
  void add_rep(double seconds) {
    rep_wall_s.push_back(seconds);
    rep_pass_s.push_back(pass_s_);
  }
  /// Record the per-job latencies (µs) of one rep.
  void add_latencies(const std::vector<double>& latency_us);

 private:
  double pass_s_ = 0.0;
};
void add_end_to_end(Report& report, const EndToEnd& e2e);

/// Counters of one System, read through its layers' public accessors.
struct FabricCounters {
  std::uint64_t cycle = 0;
  std::uint64_t evals = 0;
  std::uint64_t words_down = 0;
  std::uint64_t words_up = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t stall_lock = 0;
  std::uint64_t stall_unit_busy = 0;
  std::uint64_t stall_sync = 0;
  std::uint64_t arbiter_contention = 0;

  static FabricCounters read(fpgafu::top::System& sys);
  FabricCounters operator-(const FabricCounters& before) const;
};

/// Per-layer figures (trace on).  Every workload reports every field; a
/// layer the workload does not pass through reports 0.
struct Layers {
  // sim: Simulator::step.
  double sim_step_ns_per_cycle = 0.0;
  double sim_step_share = 0.0;
  double sim_evals_per_cycle = 0.0;
  // rtm: Rtm::counters(), per job.
  double rtm_dispatches = 0.0;
  double rtm_stall_lock = 0.0;
  double rtm_stall_unit_busy = 0.0;
  double rtm_stall_sync = 0.0;
  double rtm_arbiter_contention = 0.0;
  // msg: Link::words_down/words_up.
  double msg_words_down_per_cycle = 0.0;
  double msg_words_up_per_cycle = 0.0;
  // host.driver: Driver::service/poll/enqueue called by the benchmark loop.
  double driver_ns_per_cycle = 0.0;
  // host.transport: ReliableTransport calls.
  double transport_submit_ns_per_job = 0.0;
  double transport_service_ns_per_cycle = 0.0;
  double transport_poll_ns_per_job = 0.0;
  double transport_retries = 0.0;
  double transport_goodput_ratio = 0.0;
  // host.farm.
  double farm_submit_ns_p50 = 0.0;
  double farm_self_ns_per_job = 0.0;
  double farm_queue_latency_cycles_p50 = 0.0;
  double farm_queue_latency_cycles_p99 = 0.0;
  double farm_cpu_per_wall = 0.0;
  double farm_cycles_per_job = 0.0;
  // host.hpcc: one entry per suite part (see kHpccParts).
  struct Part {
    double wall_ms = 0.0;
    double sim_cycles = 0.0;
  };
  std::vector<Part> hpcc = std::vector<Part>(5);
  // top.
  double system_construct_ms = 0.0;
  // The traced run beside the untraced one.
  double untraced_wall_s = 0.0;  ///< median rep wall, untraced
  double traced_wall_s = 0.0;    ///< median rep wall, traced
  double untraced_cycles_per_job = 0.0;
  double traced_cycles_per_job = 0.0;  ///< instrumented loop or replay

  /// Fill the sim/rtm/msg fields from a counter delta over `jobs` jobs
  /// whose Simulator::step calls took `step` and whose loop ran `wall_ns`.
  void set_fabric(const FabricCounters& delta, double jobs, const Span& step,
                  double wall_ns);
};
inline constexpr const char* kHpccParts[5] = {"stream", "random_access", "gemm",
                                              "beff_clean", "beff_faulty"};
void add_layers(Report& report, const Layers& layers);

/// Workload entry points.
Report run_tiny_stream(const Options& opt);
Report run_hpcc(const Options& opt);
Report run_wide_fu(const Options& opt);

}  // namespace perfbench

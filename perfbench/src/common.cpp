#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>

namespace perfbench {

void Report::note(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  note(std::move(key), std::string(buf));
}

void Report::expect(bool ok, const std::string& what) {
  if (!ok) {
    consistent = false;
    std::fprintf(stderr, "perfbench: self-check failed: %s\n", what.c_str());
  }
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a child of a large launcher would report the launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

fpgafu::sim::Simulator::Kernel default_kernel() {
  const fpgafu::sim::Simulator probe;
  return probe.kernel();
}

bool same_responses(const std::vector<fpgafu::msg::Response>& got,
                    const std::vector<fpgafu::msg::Response>& expected) {
  if (got.size() != expected.size()) {
    return false;
  }
  if (got.empty()) {
    return true;
  }
  const auto offset = static_cast<std::uint16_t>(got[0].seq - expected[0].seq);
  for (std::size_t i = 0; i < got.size(); ++i) {
    fpgafu::msg::Response shifted = expected[i];
    shifted.seq = static_cast<std::uint16_t>(shifted.seq + offset);
    if (!(got[i] == shifted)) {
      return false;
    }
  }
  return true;
}

namespace {

// The calibration loop's model: heap objects of eight types behind a
// virtual call, visited in a data-dependent order, the way the settle
// kernel visits components, so that a host spell that slows the library
// slows the loop too.
struct CalNode {
  CalNode() = default;
  CalNode(const CalNode&) = delete;
  CalNode& operator=(const CalNode&) = delete;
  virtual ~CalNode() = default;
  virtual std::uint64_t eval(std::uint64_t x) = 0;
  std::uint64_t state = 0;
  std::uint32_t next = 0;
};

template <unsigned K>
struct CalNodeOf final : CalNode {
  std::uint64_t eval(std::uint64_t x) override {
    state = state * (2 * K + 3) + (x >> (K + 1));
    return (x ^ state) * 0x9e3779b97f4a7c15ULL + K;
  }
};

template <unsigned K>
std::unique_ptr<CalNode> make_cal_node() {
  return std::make_unique<CalNodeOf<K>>();
}

constexpr std::uint32_t kCalNodes = 4096;
constexpr std::size_t kCalSteps = 30000;
constexpr std::size_t kCalPasses = 3;

std::vector<std::unique_ptr<CalNode>> make_cal_nodes() {
  constexpr std::unique_ptr<CalNode> (*kMake[])() = {
      make_cal_node<0>, make_cal_node<1>, make_cal_node<2>, make_cal_node<3>,
      make_cal_node<4>, make_cal_node<5>, make_cal_node<6>, make_cal_node<7>};
  std::vector<std::unique_ptr<CalNode>> nodes;
  for (std::uint32_t i = 0; i < kCalNodes; ++i) {
    const std::uint64_t z = mix_seed(0xca1b, i);
    nodes.push_back(kMake[z % 8]());
    nodes.back()->next = static_cast<std::uint32_t>(z >> 32) % kCalNodes;
  }
  return nodes;
}

}  // namespace

double Calibration::sample() {
  static const std::vector<std::unique_ptr<CalNode>> nodes = make_cal_nodes();
  // Carried from pass to pass; a step's work does not depend on its value.
  static std::uint64_t x = 1;
  // Touch every node before the clock starts, so what the library left in
  // the caches does not move the pass time.
  for (const auto& node : nodes) {
    x += node->state;
  }
  std::vector<double> pass_s;
  for (std::size_t p = 0; p < kCalPasses; ++p) {
    const Clock::time_point t0 = Clock::now();
    auto i = static_cast<std::uint32_t>(x % kCalNodes);
    for (std::size_t k = 0; k < kCalSteps; ++k) {
      CalNode& n = *nodes[i];
      x = n.eval(x);
      i = (n.next ^ static_cast<std::uint32_t>(x >> 52)) % kCalNodes;
    }
    pass_s.push_back(seconds_since(t0));
  }
  return median(pass_s);
}

void EndToEnd::add_latencies(const std::vector<double>& latency_us) {
  rep_p50_us.push_back(percentile(latency_us, 0.50));
  rep_p99_us.push_back(percentile(latency_us, 0.99));
  latency_samples += latency_us.size();
}

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  // Each timing scaled by the calibration sampled right before it; a low
  // percentile over the run, because the host's slow moments lengthen some
  // timings far more than its fast moments shorten others.  A run has
  // dozens to hundreds of reps but only 11-25 set-ups, so set-ups take the
  // first quartile and reps the tenth percentile, the steadiest of each
  // between runs.
  const auto calibrated = [](const std::vector<double>& seconds,
                             const std::vector<double>& pass_s, double q) {
    std::vector<double> scaled;
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      scaled.push_back(seconds[i] * ratio(Calibration::kReferencePassS, pass_s[i]));
    }
    return percentile(scaled, q);
  };
  report.add("setup_s", calibrated(e2e.setup_s, e2e.setup_pass_s, 0.25), "s");
  report.add("wall_s", calibrated(e2e.rep_wall_s, e2e.rep_pass_s, 0.10), "s");
  report.add("sim_cycles", e2e.sim_cycles, "cycles");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  // The host's own clock, unscaled and unbounded.
  const double wall = median(e2e.rep_wall_s);
  report.note("raw_setup_s", median(e2e.setup_s));
  report.note("raw_wall_s", wall);
  report.note("raw_jobs_per_s", e2e.jobs_per_rep / wall);
  if (e2e.latency_samples > 0) {
    report.note("raw_job_latency_p50_us", median(e2e.rep_p50_us));
    report.note("raw_job_latency_p99_us", median(e2e.rep_p99_us));
    report.note("job_latency_samples", std::to_string(e2e.latency_samples));
  }
  report.note("calibration_pass_s", median(e2e.rep_pass_s));
  report.note("setups", std::to_string(e2e.setup_s.size()));
  report.note("reps", std::to_string(e2e.rep_wall_s.size()));
}

FabricCounters FabricCounters::read(fpgafu::top::System& s) {
  const fpgafu::sim::Counters& rtm = s.rtm().counters();
  FabricCounters c;
  c.cycle = s.simulator().cycle();
  c.evals = s.simulator().evals_performed();
  c.words_down = s.link().words_down();
  c.words_up = s.link().words_up();
  c.dispatches = rtm.get("dispatch.unit") + rtm.get("dispatch.exec");
  c.stall_lock = rtm.get("stall.lock");
  c.stall_unit_busy = rtm.get("stall.unit_busy");
  c.stall_sync = rtm.get("stall.sync");
  c.arbiter_contention = rtm.get("arbiter.contention");
  return c;
}

FabricCounters FabricCounters::operator-(const FabricCounters& b) const {
  FabricCounters d;
  d.cycle = cycle - b.cycle;
  d.evals = evals - b.evals;
  d.words_down = words_down - b.words_down;
  d.words_up = words_up - b.words_up;
  d.dispatches = dispatches - b.dispatches;
  d.stall_lock = stall_lock - b.stall_lock;
  d.stall_unit_busy = stall_unit_busy - b.stall_unit_busy;
  d.stall_sync = stall_sync - b.stall_sync;
  d.arbiter_contention = arbiter_contention - b.arbiter_contention;
  return d;
}

void Layers::set_fabric(const FabricCounters& d, double jobs, const Span& step,
                        double wall_ns) {
  const auto cycles = static_cast<double>(d.cycle);
  const auto per_job = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), jobs);
  };
  sim_step_ns_per_cycle = ratio(static_cast<double>(step.ns), cycles);
  sim_step_share = ratio(static_cast<double>(step.ns), wall_ns);
  sim_evals_per_cycle = ratio(static_cast<double>(d.evals), cycles);
  rtm_dispatches = per_job(d.dispatches);
  rtm_stall_lock = per_job(d.stall_lock);
  rtm_stall_unit_busy = per_job(d.stall_unit_busy);
  rtm_stall_sync = per_job(d.stall_sync);
  rtm_arbiter_contention = per_job(d.arbiter_contention);
  msg_words_down_per_cycle = ratio(static_cast<double>(d.words_down), cycles);
  msg_words_up_per_cycle = ratio(static_cast<double>(d.words_up), cycles);
}

void add_layers(Report& report, const Layers& l) {
  report.add("sim.step_ns_per_cycle", l.sim_step_ns_per_cycle, "ns");
  report.add("sim.step_share", l.sim_step_share, "ratio");
  report.add("sim.evals_per_cycle", l.sim_evals_per_cycle, "evals/cycle");
  report.add("rtm.dispatches", l.rtm_dispatches, "count/job");
  report.add("rtm.stall_lock", l.rtm_stall_lock, "count/job");
  report.add("rtm.stall_unit_busy", l.rtm_stall_unit_busy, "count/job");
  report.add("rtm.stall_sync", l.rtm_stall_sync, "count/job");
  report.add("rtm.arbiter_contention", l.rtm_arbiter_contention, "count/job");
  report.add("msg.words_down_per_cycle", l.msg_words_down_per_cycle,
             "words/cycle");
  report.add("msg.words_up_per_cycle", l.msg_words_up_per_cycle,
             "words/cycle");
  report.add("host.driver.service_ns_per_cycle", l.driver_ns_per_cycle, "ns");
  report.add("host.transport.submit_ns_per_job", l.transport_submit_ns_per_job,
             "ns");
  report.add("host.transport.service_ns_per_cycle",
             l.transport_service_ns_per_cycle, "ns");
  report.add("host.transport.poll_ns_per_job", l.transport_poll_ns_per_job,
             "ns");
  report.add("host.transport.retries", l.transport_retries, "count");
  report.add("host.transport.goodput_ratio", l.transport_goodput_ratio,
             "ratio");
  report.add("host.farm.submit_ns_p50", l.farm_submit_ns_p50, "ns");
  report.add("host.farm.self_ns_per_job", l.farm_self_ns_per_job, "ns");
  report.add("host.farm.queue_latency_cycles_p50",
             l.farm_queue_latency_cycles_p50, "cycles");
  report.add("host.farm.queue_latency_cycles_p99",
             l.farm_queue_latency_cycles_p99, "cycles");
  report.add("host.farm.cpu_per_wall", l.farm_cpu_per_wall, "ratio");
  report.add("host.farm.cycles_per_job", l.farm_cycles_per_job, "cycles/job");
  for (std::size_t i = 0; i < l.hpcc.size(); ++i) {
    const std::string part = std::string("host.hpcc.") + kHpccParts[i];
    report.add(part + ".wall_ms", l.hpcc[i].wall_ms, "ms");
    report.add(part + ".sim_cycles", l.hpcc[i].sim_cycles, "cycles");
  }
  report.add("top.system_construct_ms", l.system_construct_ms, "ms");
  report.add("trace.untraced_wall_s", l.untraced_wall_s, "s");
  report.add("trace.traced_wall_s", l.traced_wall_s, "s");
  report.add("trace.overhead_ratio",
             ratio(l.traced_wall_s, l.untraced_wall_s) - 1.0, "ratio");
  report.add("trace.untraced_cycles_per_job", l.untraced_cycles_per_job,
             "cycles/job");
  report.add("trace.traced_cycles_per_job", l.traced_cycles_per_job,
             "cycles/job");
}

}  // namespace perfbench

// Experiment E12: HPCC-style macro-workload suite on the simulated
// coprocessor.
//
// Every earlier benchmark measured our own plumbing (settle loops, FU
// protocol overhead, farm dispatch).  This binary measures *workloads* —
// the shape of the HPC Challenge suite the HPCC_FPGA projects use to
// characterise real FPGA systems — end to end through the host API:
//
//   STREAM        copy/scale/add/triad over scratchpad vectors (bandwidth)
//   RandomAccess  GUPS-style dependent read-modify-write updates (latency)
//   GEMM          blocked matrix multiply on the pipelined GEMM unit
//   b_eff         link efficiency vs message size, clean and faulty link
//
// Each workload validates its results against a host oracle (or the
// sequential reference model) and runs under every pinned settle
// kernel; a validation failure aborts the benchmark.  CI's perf smoke
// asserts a STREAM-triad throughput floor, a GEMM MACs-per-cycle floor and
// the b_eff cycle bounds under the event kernel from this binary's JSON
// output.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "host/hpcc.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace fpgafu;
namespace hpcc = host::hpcc;

// Benchmark arg: kernel index into Simulator::kAllKernels.
hpcc::Kernel kernel_of(std::int64_t arg) {
  return sim::Simulator::kAllKernels[static_cast<std::size_t>(arg)];
}

const char* label_of(std::int64_t arg) {
  return sim::Simulator::kernel_name(kernel_of(arg));
}

// Workload sizes for the checked-in tables and JSON.  The unit tests run
// the same code at smaller sizes; these are big enough that per-call
// overhead is amortised but a full all-kernel sweep stays in seconds.
hpcc::StreamConfig stream_config() {
  hpcc::StreamConfig cfg;
  cfg.elements = 256;
  return cfg;
}

hpcc::RandomAccessConfig ra_config() {
  hpcc::RandomAccessConfig cfg;
  cfg.table_words = 256;
  cfg.updates = 512;
  return cfg;
}

hpcc::GemmConfig gemm_config() {
  hpcc::GemmConfig cfg;
  cfg.n = 16;
  cfg.block = 4;
  return cfg;
}

hpcc::BeffConfig beff_config(bool faulty) {
  hpcc::BeffConfig cfg;
  cfg.message_words = {1, 2, 4, 8, 16, 32, 64, 128};
  cfg.repeats = 4;
  cfg.faulty = faulty;
  return cfg;
}

std::string status_of(const hpcc::WorkloadResult& r) {
  return r.ok() ? "ok" : "MISMATCH";
}

void add_result_row(TextTable& t, const hpcc::WorkloadResult& r,
                    const char* kernel) {
  t.add_row({r.name, kernel, std::to_string(r.jobs) + " " + r.job_unit,
             std::to_string(r.cycles), format_fixed(r.jobs_per_cycle(), 4),
             format_fixed(r.jobs_per_second() / 1e3, 1) + " k/s",
             format_fixed(r.wall_ms, 2), status_of(r)});
}

void print_suite_tables() {
  bench::section("E12",
                 "HPCC-style macro workloads (oracle-validated, both "
                 "settle kernels)");
  bench::note("STREAM 3x256 words, RandomAccess 256-word table / 512 "
              "updates, GEMM 16x16 (4x4 blocks), b_eff 1..128-word "
              "messages x4");
  TextTable t({"workload", "kernel", "jobs", "cycles", "jobs/cycle",
               "jobs/s", "wall ms", "check"});
  std::vector<hpcc::BeffOutcome> beff_clean, beff_faulty;
  for (const auto kernel : sim::Simulator::kAllKernels) {
    const char* kn = sim::Simulator::kernel_name(kernel);
    for (const auto& r : hpcc::run_stream(kernel, stream_config())) {
      add_result_row(t, r, kn);
    }
    add_result_row(t, hpcc::run_random_access(kernel, ra_config()).result, kn);
    add_result_row(t, hpcc::run_gemm(kernel, gemm_config()), kn);
    beff_clean.push_back(hpcc::run_beff(kernel, beff_config(false)));
    add_result_row(t, beff_clean.back().result, kn);
    beff_faulty.push_back(hpcc::run_beff(kernel, beff_config(true)));
    add_result_row(t, beff_faulty.back().result, kn);
  }
  t.print(std::cout);
  bench::note("jobs/cycle is simulated-hardware efficiency; jobs/s is "
              "host-side simulation speed.");

  bench::section("E12b", "b_eff link efficiency vs message size (event "
                         "kernel; payload words per cycle, both directions)");
  TextTable bt({"message words", "clean cycles", "clean words/cycle",
                "faulty cycles", "faulty words/cycle"});
  const auto& clean = beff_clean.back();   // event kernel (last pushed)
  const auto& faulty = beff_faulty.back();
  for (std::size_t i = 0; i < clean.points.size(); ++i) {
    const auto& cp = clean.points[i];
    const auto& fp = faulty.points[i];
    bt.add_row({std::to_string(cp.message_words), std::to_string(cp.cycles),
                format_fixed(cp.payload_words_per_cycle, 4),
                std::to_string(fp.cycles),
                format_fixed(fp.payload_words_per_cycle, 4)});
  }
  bt.print(std::cout);
  bench::note("faulty = 1% per-word upstream drop+corrupt+duplicate with "
              "jitter, recovered by host::ReliableTransport (retries: " +
              std::to_string(faulty.transport_retries) + ", tail probes: " +
              std::to_string(faulty.transport_probes) + ", stale drops: " +
              std::to_string(faulty.transport_stale_dropped) + ").");
  bench::note("Asymptotic ceiling: the response frame spends 4 link words "
              "per 64-bit payload word; PUTV spends 2 plus a shared header.");
}

// -- google-benchmark timings (the JSON artifact CI asserts on) -------------

void BM_HpccStream(benchmark::State& state) {
  const auto kernel = kernel_of(state.range(0));
  const auto cfg = stream_config();
  std::uint64_t words = 0;
  std::uint64_t triad_jobs = 0, triad_cycles = 0, triad_steps = 0;
  double triad_wall_ms = 0;
  for (auto _ : state) {
    const auto results = hpcc::run_stream(kernel, cfg);
    for (const auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(("STREAM pass diverged from oracle: " + r.name).c_str());
        return;
      }
      words += r.jobs;
    }
    const auto& triad = results.back();
    triad_jobs += triad.jobs;
    triad_cycles += triad.cycles;
    triad_steps += triad.steps;
    triad_wall_ms += triad.wall_ms;
  }
  state.SetLabel(label_of(state.range(0)));
  state.SetItemsProcessed(static_cast<std::int64_t>(words));
  // CI floor: host-side triad throughput (words streamed per second of
  // wall time) and the deterministic hardware efficiency figure.
  state.counters["triad_words_per_s"] =
      triad_wall_ms <= 0 ? 0.0
                         : static_cast<double>(triad_jobs) * 1e3 / triad_wall_ms;
  state.counters["triad_words_per_cycle"] =
      triad_cycles == 0
          ? 0.0
          : static_cast<double>(triad_jobs) / static_cast<double>(triad_cycles);
  // Deterministic: the share of the triad's cycles the kernel executed
  // (the rest were quiet and skipped; 1.00 under kBruteForce).
  state.counters["triad_steps_per_cycle"] =
      triad_cycles == 0
          ? 0.0
          : static_cast<double>(triad_steps) / static_cast<double>(triad_cycles);
}
BENCHMARK(BM_HpccStream)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_HpccRandomAccess(benchmark::State& state) {
  const auto kernel = kernel_of(state.range(0));
  const auto cfg = ra_config();
  std::uint64_t updates = 0, cycles = 0;
  for (auto _ : state) {
    const auto out = hpcc::run_random_access(kernel, cfg);
    if (!out.result.ok()) {
      state.SkipWithError("RandomAccess diverged from oracle");
      return;
    }
    updates += out.result.jobs;
    cycles += out.result.cycles;
  }
  state.SetLabel(label_of(state.range(0)));
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
  state.counters["updates_per_s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["cycles_per_update"] =
      updates == 0
          ? 0.0
          : static_cast<double>(cycles) / static_cast<double>(updates);
}
BENCHMARK(BM_HpccRandomAccess)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_HpccGemm(benchmark::State& state) {
  const auto kernel = kernel_of(state.range(0));
  const auto cfg = gemm_config();
  std::uint64_t macs = 0, cycles = 0, lock_stalls = 0;
  for (auto _ : state) {
    const auto r = hpcc::run_gemm(kernel, cfg);
    if (!r.ok()) {
      state.SkipWithError("GEMM diverged from host oracle");
      return;
    }
    macs += r.jobs;
    cycles += r.cycles;
    lock_stalls += r.lock_stalls;
  }
  state.SetLabel(label_of(state.range(0)));
  state.SetItemsProcessed(static_cast<std::int64_t>(macs));
  state.counters["macs_per_s"] = benchmark::Counter(
      static_cast<double>(macs), benchmark::Counter::kIsRate);
  state.counters["macs_per_cycle"] =
      cycles == 0 ? 0.0
                  : static_cast<double>(macs) / static_cast<double>(cycles);
  // Per run: RTM cycles an instruction waited on a register lock (one
  // deterministic simulation per iteration).
  state.counters["lock_stalls"] = benchmark::Counter(
      static_cast<double>(lock_stalls), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HpccGemm)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_HpccBeff(benchmark::State& state) {
  const auto kernel = kernel_of(state.range(0));
  const bool faulty = state.range(1) != 0;
  const auto cfg = beff_config(faulty);
  std::uint64_t words = 0, cycles = 0, retries = 0, probes = 0,
                gap_retries = 0, dup_dropped = 0, stale_dropped = 0;
  double best_words_per_cycle = 0;
  for (auto _ : state) {
    const auto out = hpcc::run_beff(kernel, cfg);
    if (!out.result.ok()) {
      state.SkipWithError("b_eff responses diverged from reference model");
      return;
    }
    words += out.result.jobs;
    cycles += out.result.cycles;
    retries += out.transport_retries;
    probes += out.transport_probes;
    gap_retries += out.transport_gap_retries;
    dup_dropped += out.transport_dup_dropped;
    stale_dropped += out.transport_stale_dropped;
    for (const auto& pt : out.points) {
      if (pt.payload_words_per_cycle > best_words_per_cycle) {
        best_words_per_cycle = pt.payload_words_per_cycle;
      }
    }
  }
  state.SetLabel(std::string(label_of(state.range(0))) +
                 (faulty ? "/faulty" : "/clean"));
  state.SetItemsProcessed(static_cast<std::int64_t>(words));
  state.counters["payload_words_per_cycle_best"] = best_words_per_cycle;
  // Per run, so CI can gate them: every run is the same deterministic
  // simulation, while the iteration count depends on host speed.
  const auto per_run = [](std::uint64_t total) {
    return benchmark::Counter(static_cast<double>(total),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["cycles"] = per_run(cycles);
  state.counters["transport_retries"] = per_run(retries);
  state.counters["transport_probes"] = per_run(probes);
  state.counters["transport_gap_retries"] = per_run(gap_retries);
  state.counters["transport_dup_dropped"] = per_run(dup_dropped);
  state.counters["transport_stale_dropped"] = per_run(stale_dropped);
}
BENCHMARK(BM_HpccBeff)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  fpgafu::bench::init(&argc, argv);
  print_suite_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

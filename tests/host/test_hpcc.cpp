#include "host/hpcc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace fpgafu::host::hpcc {
namespace {

// Small configs so the full all-kernel sweep stays fast; the checked-in
// BENCH_hpcc.json uses the bigger bench/bench_hpcc.cpp sizes.
StreamConfig small_stream() {
  StreamConfig cfg;
  cfg.elements = 32;
  cfg.block = 8;
  return cfg;
}

RandomAccessConfig small_ra() {
  RandomAccessConfig cfg;
  cfg.table_words = 32;
  cfg.updates = 64;
  cfg.sample_every = 8;
  return cfg;
}

GemmConfig small_gemm() {
  GemmConfig cfg;
  cfg.n = 8;
  cfg.block = 4;
  return cfg;
}

BeffConfig small_beff(bool faulty) {
  BeffConfig cfg;
  cfg.message_words = {1, 4, 16};
  cfg.repeats = 2;
  cfg.faulty = faulty;
  return cfg;
}

TEST(HpccStream, ValidatesAgainstOracleUnderAllKernels) {
  std::vector<std::uint64_t> cycles_by_kernel;
  for (const auto kernel : sim::Simulator::kAllKernels) {
    const auto results = run_stream(kernel, small_stream());
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].name, "stream_copy");
    EXPECT_EQ(results[3].name, "stream_triad");
    std::uint64_t total = 0;
    for (const auto& r : results) {
      EXPECT_TRUE(r.ok()) << r.name << " under "
                          << sim::Simulator::kernel_name(kernel) << ": "
                          << r.mismatches << " mismatches";
      EXPECT_GT(r.jobs, 0u);
      EXPECT_GT(r.cycles, 0u);
      EXPECT_GT(r.verified, 0u);
      total += r.cycles;
    }
    cycles_by_kernel.push_back(total);
  }
  // The settle kernels are pinned bit-identical, so the simulated
  // cycle counts must agree exactly.
  EXPECT_EQ(cycles_by_kernel[0], cycles_by_kernel[1]);
}

TEST(HpccStream, RejectsBadBlocking) {
  StreamConfig cfg;
  cfg.elements = 30;  // not a multiple of block
  cfg.block = 8;
  EXPECT_THROW(run_stream(Kernel::kEvent, cfg), SimError);
}

TEST(HpccRandomAccess, ValidatesAgainstOracleUnderAllKernels) {
  std::vector<std::uint64_t> cycles_by_kernel;
  for (const auto kernel : sim::Simulator::kAllKernels) {
    const auto out = run_random_access(kernel, small_ra());
    EXPECT_TRUE(out.result.ok()) << sim::Simulator::kernel_name(kernel);
    EXPECT_EQ(out.result.jobs, 64u);
    EXPECT_EQ(out.final_table.size(), 32u);
    EXPECT_EQ(out.sampled_state.size(), 64u / 8u);
    cycles_by_kernel.push_back(out.result.cycles);
  }
  EXPECT_EQ(cycles_by_kernel[0], cycles_by_kernel[1]);
}

TEST(HpccRandomAccess, DeterministicForAFixedSeed) {
  const auto a = run_random_access(Kernel::kEvent, small_ra());
  const auto b = run_random_access(Kernel::kBruteForce, small_ra());
  ASSERT_TRUE(a.result.ok());
  ASSERT_TRUE(b.result.ok());
  // Same seed -> identical update sequence, state samples, final table and
  // cycle count, even across settle kernels.
  EXPECT_EQ(a.sampled_state, b.sampled_state);
  EXPECT_EQ(a.final_table, b.final_table);
  EXPECT_EQ(a.result.cycles, b.result.cycles);

  auto other = small_ra();
  other.seed = 12345;
  const auto c = run_random_access(Kernel::kEvent, other);
  ASSERT_TRUE(c.result.ok());
  EXPECT_NE(a.sampled_state, c.sampled_state);
  EXPECT_NE(a.final_table, c.final_table);
}

TEST(HpccRandomAccess, OutOfRangeProbeRaisesScratchpadErrorFlag) {
  auto cfg = small_ra();
  cfg.probe_out_of_range = true;
  const auto out = run_random_access(Kernel::kEvent, cfg);
  // The probe is an error-path check, not part of the measured workload:
  // the updates themselves still verify...
  EXPECT_TRUE(out.result.ok());
  // ...and both the out-of-range read and write came back with
  // flag::kError observed through GETF.
  EXPECT_TRUE(out.error_flag_seen);

  cfg.probe_out_of_range = false;
  EXPECT_FALSE(run_random_access(Kernel::kEvent, cfg).error_flag_seen);
}

TEST(HpccGemm, ValidatesAgainstHostOracleUnderAllKernels) {
  std::vector<std::uint64_t> cycles_by_kernel;
  for (const auto kernel : sim::Simulator::kAllKernels) {
    const auto r = run_gemm(kernel, small_gemm());
    EXPECT_TRUE(r.ok()) << sim::Simulator::kernel_name(kernel) << ": "
                        << r.mismatches << " of " << r.verified
                        << " mismatched";
    EXPECT_EQ(r.jobs, 8u * 8u * 8u);  // n^3 MACs
    EXPECT_EQ(r.verified, 8u * 8u);   // every C element checked
    cycles_by_kernel.push_back(r.cycles);
  }
  EXPECT_EQ(cycles_by_kernel[0], cycles_by_kernel[1]);
}

TEST(HpccGemm, EveryBlockEdgeMatchesTheOracle) {
  // Block 6 fills the address table to r51; block 1 has one address and
  // a 1-cycle sweep.
  for (std::size_t block = 1; block <= 6; ++block) {
    GemmConfig cfg;
    cfg.n = 2 * block;
    cfg.block = block;
    std::vector<std::uint64_t> cycles_by_kernel;
    for (const auto kernel : sim::Simulator::kAllKernels) {
      const auto r = run_gemm(kernel, cfg);
      EXPECT_TRUE(r.ok()) << "block " << block << " under "
                          << sim::Simulator::kernel_name(kernel) << ": "
                          << r.mismatches << " of " << r.verified
                          << " mismatched";
      EXPECT_EQ(r.verified, cfg.n * cfg.n);
      cycles_by_kernel.push_back(r.cycles);
    }
    EXPECT_EQ(cycles_by_kernel[0], cycles_by_kernel[1]) << "block " << block;
  }
}

TEST(HpccGemm, LoadsOverlapTheSweep) {
  // With every result in r2 and every address PUT through r1, n = 8 at
  // block 4 took 2 590 cycles with 1 366 lock-stall cycles.  Rotating
  // sinks let the loads behind a kStart enter the unit's pipeline during
  // the sweep, and the address table halves each element's link words.
  const auto r = run_gemm(Kernel::kEvent, small_gemm());
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.cycles, 2000u);
  EXPECT_LT(r.lock_stalls, 1366u);
}

TEST(HpccGemm, RejectsBadBlocking) {
  GemmConfig cfg;
  cfg.n = 10;  // not a multiple of block
  cfg.block = 4;
  EXPECT_THROW(run_gemm(Kernel::kEvent, cfg), SimError);
  // Block 0 is empty; block 7's address table would run past r63.
  for (const std::size_t block : {std::size_t{0}, std::size_t{7}}) {
    cfg.n = 14;
    cfg.block = block;
    EXPECT_THROW(run_gemm(Kernel::kEvent, cfg), SimError) << "block " << block;
  }
}

TEST(HpccBeff, CleanLinkMatchesReferenceWithNoRetries) {
  const auto out = run_beff(Kernel::kEvent, small_beff(false));
  EXPECT_TRUE(out.result.ok());
  // The 4 -> 16-word step more than doubles the response latency, which
  // costs a tail probe; the probe's answer lands behind the data, so it
  // retries nothing.
  EXPECT_EQ(out.transport_retries, 0u);
  ASSERT_EQ(out.points.size(), 3u);
  // Bigger messages amortise framing overhead: efficiency is monotone here.
  EXPECT_GT(out.points[2].payload_words_per_cycle,
            out.points[0].payload_words_per_cycle);
}

TEST(HpccBeff, FaultyLinkStillMatchesReferenceViaRetries) {
  auto cfg = small_beff(true);
  cfg.fault_ppm = 50000;  // 5% per word per fault class: retries guaranteed
  const auto out = run_beff(Kernel::kEvent, cfg);
  // The reliable transport hides every injected fault: payloads still match
  // the reference model exactly; the cost shows up as retries and cycles.
  EXPECT_TRUE(out.result.ok());
  EXPECT_GT(out.transport_retries, 0u);
  const auto clean = run_beff(Kernel::kEvent, small_beff(false));
  EXPECT_GT(out.result.cycles, clean.result.cycles);
}

TEST(HpccBeff, CyclesAgreeAcrossKernels) {
  std::vector<std::uint64_t> cycles_by_kernel;
  for (const auto kernel : sim::Simulator::kAllKernels) {
    const auto out = run_beff(kernel, small_beff(true));
    EXPECT_TRUE(out.result.ok()) << sim::Simulator::kernel_name(kernel);
    cycles_by_kernel.push_back(out.result.cycles);
  }
  EXPECT_EQ(cycles_by_kernel[0], cycles_by_kernel[1]);
}

}  // namespace
}  // namespace fpgafu::host::hpcc

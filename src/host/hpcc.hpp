#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/types.hpp"
#include "sim/simulator.hpp"

namespace fpgafu::host::hpcc {

/// HPCC-style macro-workload suite for the simulated coprocessor.
///
/// Micro-benchmarks of the settle loop and the farm plumbing say nothing
/// about what the paper's coprocessor model is *for*; this module ports the
/// shape of the HPC Challenge suite (STREAM, RandomAccess, GEMM, b_eff —
/// the same workloads the HPCC_FPGA projects implement for real FPGAs)
/// onto the RTM as host programs plus functional units:
///
///  * STREAM     — copy/scale/add/triad over vectors in a ScratchpadUnit,
///                 all host<->FPGA data moving in PUTV/GETV bursts;
///  * RandomAccess — GUPS-style dependent read-modify-write updates with
///                 the LCG advanced *on the FPGA* (shift/arith/logic units);
///                 link-bound, at 18 downlink words per update;
///  * GEMM       — blocked matrix multiply on the pipelined fu::GemmUnit
///                 with a host-side blocking driver tiling panels through
///                 the link;
///  * b_eff      — link-efficiency sweep over message sizes (PUTV down,
///                 GETV echo up) through host::ReliableTransport, on a
///                 clean or fault-injecting link.
///
/// Every workload validates its results against a host-computed oracle (or
/// host::ReferenceModel for b_eff) and reports simulated cycles plus host
/// wall time, so the perf trajectory tracks *workloads* end to end.
///
/// Workload determinism: everything is seeded, and all randomness flows
/// through util::Xoshiro256 — a given (config, kernel) pair reproduces the
/// exact instruction stream, update sequence and results.

using Kernel = sim::Simulator::Kernel;

/// Outcome of one measured workload pass.
struct WorkloadResult {
  std::string name;      ///< e.g. "stream_triad", "random_access"
  std::string job_unit;  ///< what `jobs` counts: "word", "update", "mac"
  std::uint64_t jobs = 0;        ///< workload units completed
  std::uint64_t cycles = 0;      ///< simulated cycles of the measured pass
  /// Of those, the cycles the kernel executed (Simulator::steps_performed);
  /// the rest were quiet and skipped.
  std::uint64_t steps = 0;
  /// RTM `stall.lock` cycles of the measured pass: cycles the dispatcher
  /// held an instruction because a register it reads or writes was locked.
  std::uint64_t lock_stalls = 0;
  double wall_ms = 0.0;          ///< host wall time of the measured pass
  std::uint64_t verified = 0;    ///< values checked against the oracle
  std::uint64_t mismatches = 0;  ///< oracle disagreements (0 == correct)

  bool ok() const { return mismatches == 0 && verified > 0; }
  double jobs_per_cycle() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(jobs) / static_cast<double>(cycles);
  }
  double jobs_per_second() const {
    return wall_ms <= 0.0 ? 0.0 : static_cast<double>(jobs) * 1e3 / wall_ms;
  }
};

/// STREAM: four passes (copy c=a; scale b=q*c; add c=a+b; triad a=b+q*c)
/// over `elements`-long vectors living in one scratchpad, register-blocked
/// `block` elements at a time.  Returns one result per pass, in HPCC order.
struct StreamConfig {
  std::size_t elements = 256;  ///< vector length (multiple of `block`)
  std::size_t block = 8;       ///< register-block width, 1..8
  isa::Word scalar = 3;        ///< the STREAM `q`
  std::uint64_t seed = 0x57ea1155;
};
std::vector<WorkloadResult> run_stream(Kernel kernel,
                                       const StreamConfig& cfg = {});

/// RandomAccess: GUPS-style table updates `table[ran & (size-1)] ^= ran`
/// with the HPCC polynomial LCG `ran' = (ran << 1) ^ (msb(ran) ? 7 : 0)`
/// computed on the FPGA.  Every update is a dependent
/// shift/neg/and/shift/xor/and/read/xor/write chain through the register
/// file.  The workload is link-bound: its nine instructions cost 18
/// downlink words per update, and each result retires before the next
/// instruction arrives, so it counts 0 `stall.lock` cycles at every size.
struct RandomAccessConfig {
  std::size_t table_words = 256;  ///< must be a power of two
  std::size_t updates = 512;
  std::size_t sample_every = 16;  ///< GET the LCG state every k updates
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;  ///< initial LCG state (0 -> 1)
  /// Append an out-of-range read and write probe after the updates and
  /// observe the scratchpad's error flag through GETF.
  bool probe_out_of_range = false;
};
struct RandomAccessOutcome {
  WorkloadResult result;
  /// LCG state sampled every `sample_every` updates (the update-sequence
  /// fingerprint the determinism test compares across runs).
  std::vector<isa::Word> sampled_state;
  std::vector<isa::Word> final_table;
  /// True iff the out-of-range probe came back with flag::kError set on
  /// both the read and the write (only meaningful with probe_out_of_range).
  bool error_flag_seen = false;
};
RandomAccessOutcome run_random_access(Kernel kernel,
                                      const RandomAccessConfig& cfg = {});

/// Blocked GEMM: C = A·B for n×n matrices, tiled into block×block panels
/// streamed through the pipelined fu::GemmUnit by a host-side blocking
/// driver (load panels via PUTV bursts, kStart sweeps, GETV the C block
/// back).  `jobs` counts multiply-accumulates (n³).
///
/// Register map: r1..r7 take the unit's results in turn.  A destination
/// stays locked until its write retires and a later writer waits for it
/// (WAW), so with one sink every load behind a kStart would wait out the
/// sweep; with several it enters the unit's pipeline while the sweep runs.
/// r8..r15 are the PUTV row window.  r16..r16+block²-1 hold every panel
/// address, loaded once, so each element names its address register
/// instead of costing a PUTI of its own.
struct GemmConfig {
  std::size_t n = 16;     ///< matrix dimension (multiple of `block`)
  /// Panel edge, 1..6: the block² address registers from r16 must fit the
  /// 64-register file (6 × 6 ends at r51, 7 × 7 would need r64).
  std::size_t block = 4;
  std::uint64_t seed = 0x6e440110;
};
WorkloadResult run_gemm(Kernel kernel, const GemmConfig& cfg = {});

/// b_eff: effective link bandwidth vs message size.  One "exchange" sends
/// `message_words` 64-bit payload words downstream in PUTV bursts and
/// echoes them upstream as GETV data responses, through ReliableTransport
/// (so the faulty variant measures goodput including retries).  The
/// response stream is checked against host::ReferenceModel exactly.
struct BeffConfig {
  std::vector<std::size_t> message_words = {1, 2, 4, 8, 16, 32, 64, 128};
  unsigned repeats = 4;  ///< exchanges averaged per message size
  bool faulty = false;   ///< inject upstream drop/corrupt/duplicate + jitter
  std::uint32_t fault_ppm = 10000;  ///< per-word, per-class rate when faulty
  std::uint64_t seed = 0xbeef0042;
};
struct BeffPoint {
  std::size_t message_words = 0;
  std::uint64_t cycles = 0;  ///< total cycles over `repeats` exchanges
  /// Payload goodput: 2 * message_words * repeats / cycles (both
  /// directions count; framing, CRC words and retries are the overhead).
  double payload_words_per_cycle = 0.0;
};
struct BeffOutcome {
  WorkloadResult result;
  std::vector<BeffPoint> points;
  /// ReliableTransport's transport.{retries,probes,gap_retries,dup_dropped,
  /// stale_dropped} for the run (nonzero only on faulty runs).
  std::uint64_t transport_retries = 0;
  std::uint64_t transport_probes = 0;
  std::uint64_t transport_gap_retries = 0;
  std::uint64_t transport_dup_dropped = 0;
  std::uint64_t transport_stale_dropped = 0;
};
BeffOutcome run_beff(Kernel kernel, const BeffConfig& cfg = {});

}  // namespace fpgafu::host::hpcc

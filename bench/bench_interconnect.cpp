// Experiment E6 (DESIGN.md §5): host-link sensitivity.
//
// The paper §III: "The speed of the system is determined by two factors:
// the latency of the communication interface to the host computer, and the
// clock speed of the FPGA. ... only a very slow connection from the FPGA
// board to the processor was available.  However, this is not a limitation
// of the approach: there are FPGAs that are tightly integrated with
// processors, offering extremely high transfer rates."
//
// This harness quantifies that spectrum: operation round-trip latency and
// burst throughput across three transceiver models.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "host/coprocessor.hpp"
#include "host/reliable_transport.hpp"
#include "isa/arith.hpp"
#include "isa/assembler.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"
#include "util/table.hpp"

namespace {

using namespace fpgafu;

const msg::LinkPreset kPresets[] = {msg::kTightLink, msg::kBurstLink,
                                    msg::kSerialLink};

top::SystemConfig config_for(const msg::LinkPreset& preset) {
  top::SystemConfig cfg;
  cfg.link_down = preset.timing;
  cfg.link_up = preset.timing;
  return cfg;
}

/// One accelerated operation, end to end: PUT two operands, ADD, GET.
std::uint64_t round_trip_cycles(const msg::LinkPreset& preset) {
  top::System sys(config_for(preset));
  host::Coprocessor copro(sys);
  const auto start = sys.simulator().cycle();
  copro.call(isa::Assembler::assemble(R"(
    PUT r1, #3
    PUT r2, #4
    ADD r3, r1, r2
    GET r3
  )"));
  return sys.simulator().cycle() - start;
}

/// Sustained burst: 256 ADDs + one final GET.
std::uint64_t burst_cycles(const msg::LinkPreset& preset, int ops) {
  top::System sys(config_for(preset));
  host::Coprocessor copro(sys);
  isa::Program p;
  p.emit_put(1, 1);
  p.emit_put(2, 2);
  for (int i = 0; i < ops; ++i) {
    isa::Instruction add;
    add.function = isa::fc::kArith;
    add.variety = isa::arith::variety(isa::arith::Op::kAdd);
    add.dst1 = static_cast<isa::RegNum>(3 + (i % 8));
    add.src1 = 1;
    add.src2 = 2;
    p.emit(add);
  }
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = 3;
  p.emit(get);
  const auto start = sys.simulator().cycle();
  copro.call(p);
  return sys.simulator().cycle() - start;
}

void print_tables() {
  bench::section("E6", "Interconnect models: single-operation round trip "
                       "(PUT, PUT, ADD, GET)");
  TextTable t({"link", "latency/word", "interval/word", "round-trip cycles",
               "us @ 50 MHz"});
  for (const auto& preset : kPresets) {
    const std::uint64_t c = round_trip_cycles(preset);
    t.add_row({preset.name, std::to_string(preset.timing.latency),
               std::to_string(preset.timing.interval), std::to_string(c),
               format_fixed(static_cast<double>(c) / 50.0, 2)});
  }
  t.print(std::cout);

  bench::section("E6b", "Interconnect models: burst of 256 ADDs");
  TextTable t2({"link", "total cycles", "cycles/op", "slowdown vs tight"});
  const int ops = 256;
  const std::uint64_t tight = burst_cycles(msg::kTightLink, ops);
  for (const auto& preset : kPresets) {
    const std::uint64_t c = burst_cycles(preset, ops);
    t2.add_row({preset.name, std::to_string(c),
                format_fixed(static_cast<double>(c) / ops, 2),
                format_fixed(static_cast<double>(c) / static_cast<double>(tight),
                             2)});
  }
  t2.print(std::cout);
  bench::note("The serial prototyping-board link dominates end-to-end cost;");
  bench::note("a tight fabric makes the FPGA pipeline itself the limit —");
  bench::note("exactly the paper's discussion.");
}

/// Move 64 words into registers, scalar PUTs vs one PUTV burst.
std::uint64_t transfer_cycles(const msg::LinkPreset& preset, bool burst) {
  top::SystemConfig cfg;
  cfg.rtm.data_regs = 80;
  cfg.link_down = preset.timing;
  cfg.link_up = preset.timing;
  top::System sys(cfg);
  host::Coprocessor copro(sys);
  std::vector<isa::Word> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = i * 3 + 1;
  }
  isa::Program p;
  if (burst) {
    p.emit_put_vec(1, values);
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      p.emit_put(static_cast<isa::RegNum>(1 + i), values[i]);
    }
  }
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  p.emit(sync);
  const auto start = sys.simulator().cycle();
  copro.call(p);
  return sys.simulator().cycle() - start;
}

void print_burst_table() {
  bench::section("E6c", "Burst transfers: loading 64 registers with scalar "
                        "PUTs vs one PUTV packet");
  TextTable t({"link", "scalar cycles", "burst cycles", "speedup"});
  for (const auto& preset : kPresets) {
    const std::uint64_t scalar = transfer_cycles(preset, false);
    const std::uint64_t burst = transfer_cycles(preset, true);
    t.add_row({preset.name, std::to_string(scalar), std::to_string(burst),
               format_fixed(static_cast<double>(scalar) /
                                static_cast<double>(burst),
                            2)});
  }
  t.print(std::cout);
  bench::note("A burst halves the stream words per register (one header");
  bench::note("amortised over the packet) — the \"packets of data\" framing");
  bench::note("the paper describes for host transfers.");
}

/// 64 compute+readback operations issued in batches of `batch` before
/// waiting: measures how much link latency the asynchronous submit/poll
/// API hides.
std::uint64_t batched_cycles(const msg::LinkPreset& preset, int batch) {
  top::System sys(config_for(preset));
  host::Coprocessor copro(sys);
  copro.write_reg(1, 21);
  copro.write_reg(2, 2);
  const int total = 64;
  std::uint64_t received = 0;
  const auto start = sys.simulator().cycle();
  for (int issued = 0; issued < total; issued += batch) {
    isa::Program p;
    for (int k = 0; k < batch; ++k) {
      isa::Instruction add;
      add.function = isa::fc::kArith;
      add.variety = isa::arith::variety(isa::arith::Op::kAdd);
      add.dst1 = static_cast<isa::RegNum>(3 + (k % 8));
      add.dst_flag = static_cast<isa::RegNum>(k % 4);
      add.src1 = 1;
      add.src2 = 2;
      p.emit(add);
      isa::Instruction get;
      get.function = isa::fc::kRtm;
      get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
      get.src1 = add.dst1;
      p.emit(get);
    }
    copro.submit(p);
    // Wait for this batch's responses before issuing the next (the
    // synchronous pattern a naive driver uses).
    const std::uint64_t want = received + static_cast<std::uint64_t>(batch);
    sys.simulator().run_until(
        [&] {
          while (copro.poll()) {
            ++received;
          }
          return received >= want;
        },
        1'000'000);
  }
  return sys.simulator().cycle() - start;
}

void print_batching_table() {
  bench::section("E6d", "Hiding link latency: 64 ADD+GET pairs, waiting for "
                        "responses every `batch` operations (burst link, "
                        "latency 64)");
  TextTable t({"batch size", "total cycles", "cycles/op"});
  for (const int batch : {1, 4, 16, 64}) {
    const std::uint64_t c = batched_cycles(msg::kBurstLink, batch);
    t.add_row({std::to_string(batch), std::to_string(c),
               format_fixed(static_cast<double>(c) / 64.0, 1)});
  }
  t.print(std::cout);
  bench::note("Synchronous one-at-a-time use pays the full round trip per");
  bench::note("operation; pipelined submission amortises it — the framework");
  bench::note("treats the FPGA \"like a fast I/O device\", and I/O devices");
  bench::note("want queue depth.");
}

/// 64 ADD+GET pairs through the reliable transport over a lossy link:
/// returns {cycles, retries} for the fault rate (applied equally to
/// upstream drop, corruption and duplication).
struct FaultRunResult {
  std::uint64_t cycles;
  std::uint64_t retries;
};

FaultRunResult faulted_cycles(std::uint32_t fault_ppm) {
  top::SystemConfig cfg;
  if (fault_ppm != 0) {
    msg::FaultConfig f;
    f.seed = 0xbe7c;
    f.up.drop_ppm = fault_ppm;
    f.up.corrupt_ppm = fault_ppm;
    f.up.duplicate_ppm = fault_ppm;
    cfg.link_faults = f;
  }
  top::System sys(cfg);
  host::Coprocessor copro(sys);
  host::ReliableTransport transport(copro);

  isa::Program p;
  p.emit_put(1, 21);
  p.emit_put(2, 2);
  for (int k = 0; k < 64; ++k) {
    isa::Instruction add;
    add.function = isa::fc::kArith;
    add.variety = isa::arith::variety(isa::arith::Op::kAdd);
    add.dst1 = static_cast<isa::RegNum>(3 + (k % 8));
    add.src1 = 1;
    add.src2 = 2;
    p.emit(add);
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = add.dst1;
    p.emit(get);
  }
  const auto start = sys.simulator().cycle();
  transport.call(p);
  return {sys.simulator().cycle() - start,
          transport.counters().get("transport.retries")};
}

void print_fault_table() {
  bench::section("E6e", "Reliable transport goodput vs link fault rate "
                        "(64 ADD+GET pairs; rate applies to upstream drop, "
                        "corruption and duplication each)");
  TextTable t({"fault rate", "total cycles", "retries", "ops/kcycle",
               "slowdown vs clean"});
  const FaultRunResult clean = faulted_cycles(0);
  for (const std::uint32_t ppm : {0u, 10'000u, 20'000u, 50'000u}) {
    const FaultRunResult r = faulted_cycles(ppm);
    t.add_row({format_fixed(static_cast<double>(ppm) / 10'000.0, 1) + "%",
               std::to_string(r.cycles), std::to_string(r.retries),
               format_fixed(64.0 * 1000.0 / static_cast<double>(r.cycles), 2),
               format_fixed(static_cast<double>(r.cycles) /
                                static_cast<double>(clean.cycles),
                            2)});
  }
  t.print(std::cout);
  bench::note("Retries resend whole instructions, so goodput degrades");
  bench::note("faster than the raw fault rate: one lost frame costs a");
  bench::note("timeout or a gap-detected round trip, not just one word.");
}

void BM_RoundTrip(benchmark::State& state) {
  const auto& preset = kPresets[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(round_trip_cycles(preset));
  }
}
BENCHMARK(BM_RoundTrip)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  fpgafu::bench::init(&argc, argv);
  print_tables();
  print_burst_table();
  print_batching_table();
  print_fault_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

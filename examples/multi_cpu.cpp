// Multiple host CPUs sharing one coprocessor (paper Fig. 1: "one or more
// CPUs communicate via the interface with a set of functional units").
//
// Two host threads play the CPUs.  Each holds its own session on a farm
// with ONE shard, so both talk to the same simulated fabric over one link:
// the shard takes their programs round-robin onto the wire, keeps both in
// flight, and hands every response back to the session that issued it.
// Sessions partition the register file between themselves, as threads
// partition memory.

#include <cstdio>
#include <thread>
#include <vector>

#include "host/farm.hpp"
#include "isa/arith.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"

namespace {

using namespace fpgafu;

/// A "CPU" computing the sum 1..limit via coprocessor ADDs, using the
/// register window [base, base+1].
isa::Program sum_program(isa::RegNum base, int limit) {
  isa::Program p;
  p.emit_put(base, 0);  // accumulator
  for (int i = 1; i <= limit; ++i) {
    p.emit_put(static_cast<isa::RegNum>(base + 1), static_cast<isa::Word>(i));
    isa::Instruction add;
    add.function = isa::fc::kArith;
    add.variety = isa::arith::variety(isa::arith::Op::kAdd);
    add.dst1 = base;
    add.src1 = base;
    add.src2 = static_cast<isa::RegNum>(base + 1);
    p.emit(add);
  }
  isa::Instruction get = isa::rtm_instruction(isa::RtmOp::kGet);
  get.src1 = base;
  p.emit(get);
  return p;
}

/// One CPU: submit its program on its own session and wait for the sum.
void cpu(host::Farm& farm, isa::RegNum base, int limit,
         isa::Word& result) {
  const host::Farm::SessionId session = farm.create_session();
  const std::vector<msg::Response> rs =
      farm.submit(session, sum_program(base, limit)).get();
  result = rs.size() == 1 ? rs[0].payload : 0;
}

}  // namespace

int main() {
  host::FarmConfig config;
  config.shards = 1;  // one fabric, one link
  config.transport.window = 2;  // both CPUs' programs in flight at once
  config.system.rtm.data_regs = 32;
  host::Farm farm(config);

  // CPU 0 sums 1..100 in r1/r2; CPU 1 sums 1..200 in r10/r11.
  isa::Word sum0 = 0;
  isa::Word sum1 = 0;
  std::thread cpu0([&] { cpu(farm, /*base=*/1, /*limit=*/100, sum0); });
  std::thread cpu1([&] { cpu(farm, /*base=*/10, /*limit=*/200, sum1); });
  cpu0.join();
  cpu1.join();
  farm.shutdown();  // the shard leaves its final clock for the read below

  std::printf("CPU0: sum(1..100) = %llu (expected 5050)\n",
              static_cast<unsigned long long>(sum0));
  std::printf("CPU1: sum(1..200) = %llu (expected 20100)\n",
              static_cast<unsigned long long>(sum1));
  std::printf("shared-link cycles: %llu\n",
              static_cast<unsigned long long>(
                  farm.counters().get("farm.shard_cycles")));
  return (sum0 == 5050 && sum1 == 20100) ? 0 : 1;
}

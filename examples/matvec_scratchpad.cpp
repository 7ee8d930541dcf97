// Matrix–vector multiply with on-FPGA state: the matrix lives in a
// scratchpad (block-RAM) functional unit, the vector in the register file,
// and the multiply/accumulate runs on the mul/div and arithmetic units —
// a workload that combines a stateful unit with stateless ones, exactly
// the composition the framework is for.

#include <cstdio>
#include <vector>

#include "fu/scratchpad_unit.hpp"
#include "host/coprocessor.hpp"
#include "isa/arith.hpp"
#include "isa/muldiv.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"

namespace {

using namespace fpgafu;

constexpr int kN = 8;
constexpr isa::FunctionCode kScratchpadCode = isa::fc::kUserBase + 2;

isa::Instruction sp_op(isa::VarietyCode v, isa::RegNum addr_reg,
                       isa::RegNum data_reg, isa::RegNum dst) {
  isa::Instruction inst;
  inst.function = kScratchpadCode;
  inst.variety = v;
  inst.src1 = addr_reg;  // operand1 = address
  inst.src2 = data_reg;  // operand2 = data
  inst.dst1 = dst;
  return inst;
}

isa::Instruction alu(isa::FunctionCode f, isa::VarietyCode v, isa::RegNum d,
                     isa::RegNum a, isa::RegNum b) {
  isa::Instruction inst;
  inst.function = f;
  inst.variety = v;
  inst.dst1 = d;
  inst.src1 = a;
  inst.src2 = b;
  return inst;
}

}  // namespace

int main() {
  top::SystemConfig config;
  config.rtm.data_regs = 32;
  top::System system(config);
  fu::ScratchpadUnit scratchpad(system.simulator(), "matrix_ram", kN * kN);
  system.attach(kScratchpadCode, scratchpad);
  host::Coprocessor copro(system);

  // Random matrix A and vector x (small values; 32-bit accumulation).
  Xoshiro256 rng(12);
  std::vector<std::uint64_t> a(kN * kN), x(kN);
  for (auto& v : a) {
    v = rng.below(100);
  }
  for (auto& v : x) {
    v = rng.below(100);
  }

  // Load A into the scratchpad: r1 = address, r2 = value, write.
  isa::Program load;
  for (int i = 0; i < kN * kN; ++i) {
    load.emit_put(1, static_cast<isa::Word>(i));
    load.emit_put(2, a[static_cast<std::size_t>(i)]);
    load.emit(sp_op(fu::ScratchpadUnit::kWrite, 1, 2, 3));
  }
  // Load x into registers r8..r15 with one burst.
  load.emit_put_vec(8, x);
  copro.submit(load);
  copro.sync();

  // y[row] = sum_col A[row*N+col] * x[col]; accumulate in r4.
  // r1 = address, r5 = matrix element, r6 = product.
  isa::Program compute;
  for (int row = 0; row < kN; ++row) {
    isa::Instruction zero = isa::rtm_instruction(isa::RtmOp::kPutImm);
    zero.dst1 = 4;
    zero.aux = 0;
    compute.emit(zero);
    for (int col = 0; col < kN; ++col) {
      compute.emit_put(1, static_cast<isa::Word>(row * kN + col));
      compute.emit(sp_op(fu::ScratchpadUnit::kRead, 1, 0, 5));
      compute.emit(alu(isa::fc::kMulDiv,
                       isa::muldiv::variety(isa::muldiv::Op::kMul), 6, 5,
                       static_cast<isa::RegNum>(8 + col)));
      compute.emit(alu(isa::fc::kArith,
                       isa::arith::variety(isa::arith::Op::kAdd), 4, 4, 6));
    }
    isa::Instruction get = isa::rtm_instruction(isa::RtmOp::kGet);
    get.src1 = 4;
    compute.emit(get);
  }
  const auto responses = copro.call(compute);

  int mismatches = 0;
  for (int row = 0; row < kN; ++row) {
    std::uint64_t expect = 0;
    for (int col = 0; col < kN; ++col) {
      expect += a[static_cast<std::size_t>(row * kN + col)] *
                x[static_cast<std::size_t>(col)];
    }
    const std::uint64_t got = responses[static_cast<std::size_t>(row)].payload;
    std::printf("y[%d] = %6llu  (expect %6llu)%s\n", row,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(expect),
                got == expect ? "" : "  MISMATCH");
    mismatches += got != expect ? 1 : 0;
  }
  std::printf("%dx%d mat-vec on scratchpad + mul/div + arithmetic units: %s\n",
              kN, kN, mismatches == 0 ? "OK" : "MISMATCH");
  std::printf("simulated cycles: %llu (%.1f us at %.0f MHz)\n",
              static_cast<unsigned long long>(system.simulator().cycle()),
              system.cycles_to_us(system.simulator().cycle()),
              system.config().clock_mhz);
  return mismatches == 0 ? 0 : 1;
}

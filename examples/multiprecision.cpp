// Multi-precision arithmetic on the coprocessor.
//
// The thesis' arithmetic unit supports "multi-word operation ... through an
// externally provided carry bit read from the input carry flag" (§3.2.2).
// This example adds and subtracts 256-bit integers on the 32-bit datapath
// by chaining ADC/SBB through a flag register, verifying each result
// against a host-side reference.

#include <cstdio>
#include <cstring>
#include <vector>

#include "host/coprocessor.hpp"
#include "isa/arith.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"

namespace {

using namespace fpgafu;

constexpr int kLimbs = 8;  // 8 x 32 bits = 256 bits
using BigInt = std::vector<std::uint32_t>;  // little-endian limbs

BigInt random_bigint(Xoshiro256& rng) {
  BigInt v(kLimbs);
  for (auto& limb : v) {
    limb = static_cast<std::uint32_t>(rng.next());
  }
  return v;
}

/// Host-side reference addition/subtraction (mod 2^256).
BigInt ref_addsub(const BigInt& a, const BigInt& b, bool subtract) {
  BigInt out(kLimbs);
  std::uint64_t carry = subtract ? 1 : 0;
  for (int i = 0; i < kLimbs; ++i) {
    const std::uint64_t rhs = subtract ? ~b[static_cast<std::size_t>(i)]
                                       : b[static_cast<std::size_t>(i)];
    const std::uint64_t sum =
        static_cast<std::uint64_t>(a[static_cast<std::size_t>(i)]) +
        (rhs & 0xffffffffu) + carry;
    out[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  return out;
}

/// Emit a chained 256-bit add (or subtract) program.
/// Register map: a limbs in r1..r8, b limbs in r9..r16, result in r17..r24;
/// the running carry lives in flag register f1.
isa::Program bignum_program(const BigInt& a, const BigInt& b, bool subtract) {
  isa::Program p;
  for (int i = 0; i < kLimbs; ++i) {
    p.emit_put(static_cast<isa::RegNum>(1 + i), a[static_cast<std::size_t>(i)]);
    p.emit_put(static_cast<isa::RegNum>(9 + i), b[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < kLimbs; ++i) {
    isa::Instruction inst;
    inst.function = isa::fc::kArith;
    using isa::arith::Op;
    // Limb 0 uses ADD/SUB (sets the carry convention); later limbs chain
    // ADC/SBB through f1.
    const Op op = i == 0 ? (subtract ? Op::kSub : Op::kAdd)
                         : (subtract ? Op::kSbb : Op::kAdc);
    inst.variety = isa::arith::variety(op);
    inst.src1 = static_cast<isa::RegNum>(1 + i);
    inst.src2 = static_cast<isa::RegNum>(9 + i);
    inst.src_flag = 1;
    inst.dst_flag = 1;
    inst.dst1 = static_cast<isa::RegNum>(17 + i);
    p.emit(inst);
  }
  for (int i = 0; i < kLimbs; ++i) {
    isa::Instruction get = isa::rtm_instruction(isa::RtmOp::kGet);
    get.src1 = static_cast<isa::RegNum>(17 + i);
    p.emit(get);
  }
  return p;
}

void print_bigint(const char* label, const BigInt& v) {
  std::printf("%s0x", label);
  for (int i = kLimbs; i-- > 0;) {
    std::printf("%08x", v[static_cast<std::size_t>(i)]);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  top::SystemConfig config;
  config.rtm.word_width = 32;
  config.rtm.data_regs = 32;
  top::System system(config);
  host::Coprocessor copro(system);

  Xoshiro256 rng(2010);
  int checked = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const BigInt a = random_bigint(rng);
    const BigInt b = random_bigint(rng);
    for (const bool subtract : {false, true}) {
      const auto responses = copro.call(bignum_program(a, b, subtract));
      BigInt got(kLimbs);
      for (int i = 0; i < kLimbs; ++i) {
        got[static_cast<std::size_t>(i)] =
            static_cast<std::uint32_t>(responses[static_cast<std::size_t>(i)]
                                           .payload);
      }
      const BigInt expect = ref_addsub(a, b, subtract);
      if (got != expect) {
        std::printf("MISMATCH (%s):\n", subtract ? "sub" : "add");
        print_bigint("  a      = ", a);
        print_bigint("  b      = ", b);
        print_bigint("  got    = ", got);
        print_bigint("  expect = ", expect);
        return 1;
      }
      ++checked;
    }
  }
  std::printf("256-bit add/sub on the 32-bit coprocessor: %d/%d results "
              "match the host reference.\n",
              checked, checked);
  std::printf("total simulated cycles: %llu\n",
              static_cast<unsigned long long>(system.simulator().cycle()));
  return 0;
}

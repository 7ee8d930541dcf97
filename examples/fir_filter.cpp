// A 5-tap FIR filter compiled to the coprocessor with the expression
// compiler: the host builds y[n] = sum(h[k] * x[n-k]) as an expression DAG
// once; every sample evaluation reuses the compiled program with fresh
// input bindings.  Fixed-point Q16.16 arithmetic on the integer units
// (MUL + shifts + ADDs), verified against a host-side reference.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/expr.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"

namespace {

using namespace fpgafu;

constexpr int kTaps = 5;
// Simple low-pass kernel in Q16.16: [1, 4, 6, 4, 1] / 16.
const std::uint64_t kH[kTaps] = {0x1000, 0x4000, 0x6000, 0x4000, 0x1000};

/// Input name of delay-line tap k ("x0".."x4").
std::string tap_name(int k) {
  std::string name = "x";
  name += std::to_string(k);
  return name;
}

}  // namespace

int main() {
  top::SystemConfig config;
  top::System system(config);
  host::Coprocessor copro(system);

  // Build the filter expression once: inputs x0..x4 are the delay line.
  using host::Expr;
  Expr acc = Expr::constant(0);
  for (int k = 0; k < kTaps; ++k) {
    const Expr tap = Expr::input(tap_name(k)) *
                     Expr::constant(kH[static_cast<std::size_t>(k)]);
    // Product of two Q16.16 values is Q32.32; renormalise to Q16.16.
    acc = acc + (tap >> Expr::constant(16));
  }
  const host::ExprCompiler compiler(system.rtm().config());
  const host::CompiledExpr filter = compiler.compile(acc);
  std::printf("compiled FIR: %zu operations, %zu registers\n",
              filter.operation_count(), filter.registers_used());

  // Drive a noisy step signal through it.
  Xoshiro256 rng(99);
  constexpr int kSamples = 64;
  std::vector<std::uint64_t> x(kSamples);
  for (int n = 0; n < kSamples; ++n) {
    const std::uint64_t step = n < kSamples / 2 ? 0x10000 : 0x30000;
    x[static_cast<std::size_t>(n)] =
        step + rng.below(0x4000);  // Q16.16 with additive noise
  }

  int mismatches = 0;
  for (int n = kTaps - 1; n < kSamples; ++n) {
    std::map<std::string, isa::Word> bind;
    std::uint64_t expect = 0;
    for (int k = 0; k < kTaps; ++k) {
      const std::uint64_t xv = x[static_cast<std::size_t>(n - k)];
      bind[tap_name(k)] = xv;
      expect = (expect +
                (((xv * kH[static_cast<std::size_t>(k)]) & 0xffffffffu) >>
                 16)) &
               0xffffffffu;
    }
    const isa::Word got = filter.run(copro, bind);
    if (got != expect) {
      ++mismatches;
      if (mismatches <= 3) {
        std::printf("MISMATCH at n=%d: got 0x%llx want 0x%llx\n", n,
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(expect));
      }
    }
  }

  std::printf("filtered %d samples on the coprocessor: %s\n",
              kSamples - kTaps + 1,
              mismatches == 0 ? "all match the host reference" : "MISMATCH");
  std::printf("simulated cycles: %llu (%.1f us at %.0f MHz)\n",
              static_cast<unsigned long long>(system.simulator().cycle()),
              system.cycles_to_us(system.simulator().cycle()),
              system.config().clock_mhz);
  return mismatches == 0 ? 0 : 1;
}

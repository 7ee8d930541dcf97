#include "fu/gemm_unit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fu/conformance.hpp"
#include "support/fu_harness.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace fpgafu::fu {
namespace {

using fpgafu::testing::FuDriver;

struct GemmRig {
  sim::Simulator sim;
  GemmUnit gemm;
  FuDriver drv;

  GemmRig(std::size_t max_m, std::size_t max_n, std::size_t max_k,
          std::uint32_t depth = 4, std::size_t fifo = 8)
      : gemm(sim, "gemm", max_m, max_n, max_k, depth, fifo),
        drv(sim, "drv", gemm.ports) {}

  FuResult op(isa::VarietyCode v, isa::Word addr, isa::Word data = 0) {
    FuRequest r;
    r.variety = v;
    r.operand1 = addr;
    r.operand2 = data;
    r.dst_reg = 1;
    const std::size_t before = drv.completions().size();
    drv.enqueue(r);
    sim.run_until([&] { return drv.completions().size() == before + 1; },
                  100000);
    return drv.completions().back().result;
  }
};

bool err(const FuResult& r) { return bits::bit(r.flags, isa::flag::kError); }

TEST(GemmUnit, ConfigLoadStartReadRoundTrip) {
  GemmRig rig(4, 4, 4);
  ASSERT_FALSE(err(rig.op(GemmUnit::kConfig, GemmUnit::config_word(2, 3, 2))));
  // A = [[1 2], [3 4]] (2x2), B = [[5 6 7], [8 9 10]] (2x3).
  const isa::Word a[] = {1, 2, 3, 4};
  const isa::Word b[] = {5, 6, 7, 8, 9, 10};
  for (isa::Word i = 0; i < 4; ++i) rig.op(GemmUnit::kLoadA, i, a[i]);
  for (isa::Word i = 0; i < 6; ++i) rig.op(GemmUnit::kLoadB, i, b[i]);
  const auto start = rig.op(GemmUnit::kStart, 0);
  ASSERT_FALSE(err(start));
  EXPECT_EQ(start.data, 2u * 3u * 2u);  // reports MACs performed
  const isa::Word want[] = {21, 24, 27, 47, 54, 61};
  for (isa::Word i = 0; i < 6; ++i) {
    EXPECT_EQ(rig.op(GemmUnit::kReadC, i).data, want[i]) << "C[" << i << "]";
  }
}

TEST(GemmUnit, AccumulatesAcrossStartsAndClears) {
  GemmRig rig(2, 2, 2);
  rig.op(GemmUnit::kConfig, GemmUnit::config_word(1, 1, 1));
  rig.op(GemmUnit::kLoadA, 0, 3);
  rig.op(GemmUnit::kLoadB, 0, 5);
  rig.op(GemmUnit::kStart, 0);
  EXPECT_EQ(rig.op(GemmUnit::kReadC, 0).data, 15u);
  rig.op(GemmUnit::kStart, 0);  // C += A*B again
  EXPECT_EQ(rig.op(GemmUnit::kReadC, 0).data, 30u);
  const auto clr = rig.op(GemmUnit::kClearC, 0);
  ASSERT_FALSE(err(clr));
  EXPECT_EQ(rig.op(GemmUnit::kReadC, 0).data, 0u);
}

TEST(GemmUnit, RejectsBadConfigAndOutOfRange) {
  GemmRig rig(3, 3, 3);
  EXPECT_TRUE(err(rig.op(GemmUnit::kConfig, GemmUnit::config_word(0, 1, 1))));
  EXPECT_TRUE(err(rig.op(GemmUnit::kConfig, GemmUnit::config_word(4, 1, 1))));
  // Failed configs leave the active dims at full capacity.
  EXPECT_EQ(rig.gemm.m(), 3u);
  ASSERT_FALSE(err(rig.op(GemmUnit::kConfig, GemmUnit::config_word(2, 2, 2))));
  EXPECT_TRUE(err(rig.op(GemmUnit::kLoadA, 4, 1)));   // m*k == 4
  EXPECT_TRUE(err(rig.op(GemmUnit::kLoadB, 4, 1)));   // k*n == 4
  EXPECT_TRUE(err(rig.op(GemmUnit::kReadC, 4)));      // m*n == 4
  EXPECT_TRUE(err(rig.op(0x7f, 0)));                  // unknown variety
  EXPECT_FALSE(err(rig.op(GemmUnit::kLoadA, 3, 1)));
}

TEST(GemmUnit, StartLatencyIsDepthPlusMacs) {
  GemmRig rig(2, 2, 2, /*depth=*/3, /*fifo=*/8);
  rig.op(GemmUnit::kConfig, GemmUnit::config_word(2, 2, 2));
  FuRequest r;
  r.variety = GemmUnit::kStart;
  r.dst_reg = 1;
  rig.drv.enqueue(r);
  rig.sim.run_until([&] { return rig.drv.completions().size() == 2; }, 1000);
  const auto dispatched = rig.drv.dispatch_cycles().back();
  const auto completed = rig.drv.completions().back().cycle;
  // Fill (depth) + one MAC per clock (m*n*k = 8), plus the ack handshake.
  EXPECT_GE(completed - dispatched, 3u + 8u);
  EXPECT_LE(completed - dispatched, 3u + 8u + 2u);
}

/// A kStart sizes its sweep from the dims of the last valid kConfig
/// accepted ahead of it: issued right behind a kConfig that is still in the
/// pipeline, it takes exactly as long as after the config has retired (and
/// an invalid config queued in between leaves those dims in force).
TEST(GemmUnit, StartBehindAnInFlightConfigSweepsTheNewDims) {
  auto start_cycles = [](bool config_retired) {
    GemmRig rig(8, 8, 8, /*depth=*/4, /*fifo=*/8);
    FuRequest cfg;
    cfg.variety = GemmUnit::kConfig;
    cfg.operand1 = GemmUnit::config_word(2, 2, 2);
    cfg.dst_reg = 1;
    FuRequest bad = cfg;
    bad.operand1 = GemmUnit::config_word(9, 1, 1);  // over capacity
    FuRequest start;
    start.variety = GemmUnit::kStart;
    start.dst_reg = 1;
    rig.drv.enqueue(cfg);
    rig.drv.enqueue(bad);
    if (config_retired) {
      rig.sim.run_until([&] { return rig.drv.completions().size() == 2; },
                        1000);
    }
    rig.drv.enqueue(start);
    rig.sim.run_until([&] { return rig.drv.completions().size() == 3; },
                      1000);
    EXPECT_EQ(rig.drv.completions().back().result.data, 8u);  // 2*2*2 MACs
    return rig.drv.completions().back().cycle -
           rig.drv.dispatch_cycles().back();
  };
  const std::uint64_t after_retire = start_cycles(true);
  EXPECT_LE(after_retire, 4u + 8u + 2u);
  EXPECT_EQ(start_cycles(false), after_retire);
}

TEST(GemmUnit, LoadsStreamAtInitiationIntervalOne) {
  GemmRig rig(4, 4, 4, /*depth=*/4, /*fifo=*/16);
  for (isa::Word i = 0; i < 12; ++i) {
    FuRequest r;
    r.variety = GemmUnit::kLoadA;
    r.operand1 = i;
    r.operand2 = i + 1;
    r.dst_reg = 1;
    rig.drv.enqueue(r);
  }
  rig.sim.run_until([&] { return rig.drv.completions().size() == 12; }, 1000);
  // Back-to-back loads retire one per cycle once the pipeline is full.
  const auto& comps = rig.drv.completions();
  for (std::size_t i = 1; i < comps.size(); ++i) {
    EXPECT_EQ(comps[i].cycle - comps[i - 1].cycle, 1u) << "gap before " << i;
  }
}

TEST(GemmUnit, InOrderRetirementGivesSequentialConsistency) {
  GemmRig rig(2, 2, 2, /*depth=*/2, /*fifo=*/8);
  rig.op(GemmUnit::kConfig, GemmUnit::config_word(1, 1, 1));
  rig.op(GemmUnit::kLoadA, 0, 10);
  rig.op(GemmUnit::kLoadB, 0, 1);
  // Issue a sweep immediately followed by a load that overwrites A.  The
  // load's latency (depth) is far shorter than the sweep's, but in-order
  // retirement means the sweep still sees A == 10.
  FuRequest start;
  start.variety = GemmUnit::kStart;
  start.dst_reg = 1;
  FuRequest load;
  load.variety = GemmUnit::kLoadA;
  load.operand1 = 0;
  load.operand2 = 999;
  load.dst_reg = 2;
  rig.drv.enqueue(start);
  rig.drv.enqueue(load);
  rig.sim.run_until([&] { return rig.drv.completions().size() == 5; }, 1000);
  EXPECT_EQ(rig.op(GemmUnit::kReadC, 0).data, 10u);
  EXPECT_EQ(rig.gemm.peek_a(0), 999u);
}

TEST(GemmUnit, DifferentialAgainstHostOracle) {
  GemmRig rig(3, 3, 3, /*depth=*/4, /*fifo=*/9);
  std::vector<isa::Word> a(9, 0), b(9, 0), c(9, 0);
  std::size_t m = 3, n = 3, k = 3;
  Xoshiro256 rng(2026);
  for (int i = 0; i < 400; ++i) {
    switch (rng.below(6)) {
      case 0: {
        const std::size_t nm = 1 + rng.below(3);
        const std::size_t nn = 1 + rng.below(3);
        const std::size_t nk = 1 + rng.below(3);
        const auto r =
            rig.op(GemmUnit::kConfig, GemmUnit::config_word(nm, nn, nk));
        ASSERT_FALSE(err(r));
        m = nm;
        n = nn;
        k = nk;
        break;
      }
      case 1: {
        const isa::Word addr = rng.below(m * k);
        const isa::Word data = rng.next() & 0xffff;
        rig.op(GemmUnit::kLoadA, addr, data);
        a[addr] = data;
        break;
      }
      case 2: {
        const isa::Word addr = rng.below(k * n);
        const isa::Word data = rng.next() & 0xffff;
        rig.op(GemmUnit::kLoadB, addr, data);
        b[addr] = data;
        break;
      }
      case 3: {
        rig.op(GemmUnit::kStart, 0);
        for (std::size_t ii = 0; ii < m; ++ii) {
          for (std::size_t jj = 0; jj < n; ++jj) {
            isa::Word acc = c[ii * n + jj];
            for (std::size_t pp = 0; pp < k; ++pp) {
              acc += a[ii * k + pp] * b[pp * n + jj];
            }
            c[ii * n + jj] = acc;
          }
        }
        break;
      }
      case 4: {
        const isa::Word addr = rng.below(m * n);
        const auto r = rig.op(GemmUnit::kReadC, addr);
        ASSERT_EQ(r.data, c[addr]) << "C[" << addr << "] step " << i;
        break;
      }
      default:
        rig.op(GemmUnit::kClearC, 0);
        c.assign(9, 0);
        break;
    }
  }
}

TEST(GemmUnit, ConformsToProtocolUnderStalls) {
  sim::Simulator sim;
  GemmUnit gemm(sim, "gemm", 2, 2, 2, /*pipeline_depth=*/3,
                /*fifo_capacity=*/6);
  FuDriver drv(sim, "drv", gemm.ports, 2, 3, 99);  // 2/3 ack duty
  ConformanceMonitor mon(sim, "mon", gemm.ports);
  Xoshiro256 rng(11);
  for (int i = 0; i < 80; ++i) {
    FuRequest r;
    r.variety = static_cast<isa::VarietyCode>(1 + rng.below(6));
    r.operand1 = rng.below(6);  // sometimes out of range
    r.operand2 = rng.next();
    r.dst_reg = static_cast<isa::RegNum>(rng.below(8));
    drv.enqueue(r);
  }
  sim.run_until([&] { return drv.completions().size() == 80; }, 100000);
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST(GemmUnit, RejectsBadConstructionSizing) {
  sim::Simulator sim;
  EXPECT_THROW(GemmUnit(sim, "g", 0, 1, 1), fpgafu::SimError);
  EXPECT_THROW(GemmUnit(sim, "g", 256, 1, 1), fpgafu::SimError);
  // FIFO must out-size the pipeline (thesis 2.3.4 sizing rule).
  EXPECT_THROW(GemmUnit(sim, "g", 2, 2, 2, 4, 4), fpgafu::SimError);
}

}  // namespace
}  // namespace fpgafu::fu

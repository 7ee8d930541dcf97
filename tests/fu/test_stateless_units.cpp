#include <gtest/gtest.h>

#include "fu/conformance.hpp"
#include "fu/stateless_units.hpp"
#include "isa/arith.hpp"
#include "isa/logic.hpp"
#include "isa/shift.hpp"
#include "support/fu_harness.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace fpgafu::fu {
namespace {

using fpgafu::testing::FuDriver;

/// Run `n` random operations of a unit family through every skeleton and
/// check each acknowledged result against the ISA-level oracle.
class StatelessUnitSweep : public ::testing::TestWithParam<Skeleton> {};

FuRequest random_request(Xoshiro256& rng, isa::VarietyCode variety,
                         unsigned width) {
  FuRequest r;
  r.variety = variety;
  r.operand1 = rng.next() & bits::mask(width);
  r.operand2 = rng.next() & bits::mask(width);
  r.flags_in = static_cast<isa::FlagWord>(rng.below(32));
  r.dst_reg = static_cast<isa::RegNum>(rng.below(16));
  r.dst_flag_reg = static_cast<isa::RegNum>(rng.below(4));
  return r;
}

StatelessConfig config_for(Skeleton s, unsigned width) {
  StatelessConfig cfg;
  cfg.width = width;
  cfg.skeleton = s;
  cfg.execute_cycles = 2;
  cfg.pipeline_depth = 3;
  cfg.fifo_capacity = 6;
  return cfg;
}

TEST_P(StatelessUnitSweep, ArithmeticUnitMatchesOracle) {
  const unsigned width = 32;
  sim::Simulator sim;
  auto fu = make_arithmetic_unit(sim, config_for(GetParam(), width));
  FuDriver drv(sim, "drv", fu->ports, 3, 4, 11);
  ConformanceMonitor mon(sim, "mon", fu->ports);

  Xoshiro256 rng(2024);
  std::vector<FuRequest> sent;
  for (int i = 0; i < 200; ++i) {
    const auto op = isa::arith::kAllOps[rng.below(isa::arith::kAllOps.size())];
    FuRequest r = random_request(rng, isa::arith::variety(op), width);
    sent.push_back(r);
    drv.enqueue(r);
  }
  sim.run_until(
      [&] {
        // Ops with no data output still write flags, so every op produces
        // exactly one arbiter transaction.
        return drv.completions().size() == sent.size();
      },
      50000);

  for (std::size_t i = 0; i < sent.size(); ++i) {
    const FuRequest& q = sent[i];
    const FuResult& r = drv.completions()[i].result;
    const auto expect = isa::arith::evaluate(q.variety, q.operand1, q.operand2,
                                             q.flags_in, width);
    ASSERT_EQ(r.data & bits::mask(width),
              expect.write_data ? expect.value : r.data & bits::mask(width));
    if (expect.write_data) {
      ASSERT_EQ(r.data, expect.value) << "op " << i;
    }
    ASSERT_EQ(r.flags, expect.flags) << "op " << i;
    ASSERT_EQ(r.write_data, expect.write_data);
    ASSERT_TRUE(r.write_flags);
    ASSERT_EQ(r.dst_reg, q.dst_reg);
    ASSERT_EQ(r.dst_flag_reg, q.dst_flag_reg);
  }
  mon.check_drained();
  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
}

TEST_P(StatelessUnitSweep, LogicUnitMatchesOracle) {
  const unsigned width = 32;
  sim::Simulator sim;
  auto fu =
      make_stock_unit(sim, isa::fc::kLogic, config_for(GetParam(), width));
  FuDriver drv(sim, "drv", fu->ports, 3, 4, 13);
  Xoshiro256 rng(99);
  std::vector<FuRequest> sent;
  for (int i = 0; i < 200; ++i) {
    const auto op = isa::logic::kAllOps[rng.below(isa::logic::kAllOps.size())];
    FuRequest r = random_request(rng, isa::logic::variety(op), width);
    sent.push_back(r);
    drv.enqueue(r);
  }
  sim.run_until([&] { return drv.completions().size() == sent.size(); },
                50000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const FuRequest& q = sent[i];
    const FuResult& r = drv.completions()[i].result;
    const auto expect =
        isa::logic::evaluate(q.variety, q.operand1, q.operand2, width);
    ASSERT_EQ(r.data, expect.value) << "op " << i;
    ASSERT_EQ(r.flags, expect.flags);
  }
}

TEST_P(StatelessUnitSweep, ShiftUnitMatchesOracle) {
  const unsigned width = 64;
  sim::Simulator sim;
  auto fu =
      make_stock_unit(sim, isa::fc::kShift, config_for(GetParam(), width));
  FuDriver drv(sim, "drv", fu->ports, 3, 4, 17);
  Xoshiro256 rng(7);
  std::vector<FuRequest> sent;
  for (int i = 0; i < 200; ++i) {
    const auto op = isa::shift::kAllOps[rng.below(isa::shift::kAllOps.size())];
    FuRequest r = random_request(rng, isa::shift::variety(op), width);
    sent.push_back(r);
    drv.enqueue(r);
  }
  sim.run_until([&] { return drv.completions().size() == sent.size(); },
                50000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const FuRequest& q = sent[i];
    const FuResult& r = drv.completions()[i].result;
    const auto expect =
        isa::shift::evaluate(q.variety, q.operand1, q.operand2, width);
    ASSERT_EQ(r.data, expect.value) << "op " << i;
    ASSERT_EQ(r.flags, expect.flags);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSkeletons, StatelessUnitSweep,
    ::testing::Values(Skeleton::kMinimal, Skeleton::kMinimalFwd, Skeleton::kFsm,
                      Skeleton::kPipelined),
    [](const ::testing::TestParamInfo<Skeleton>& pinfo) {
      switch (pinfo.param) {
        case Skeleton::kMinimal: return "Minimal";
        case Skeleton::kMinimalFwd: return "MinimalFwd";
        case Skeleton::kFsm: return "Fsm";
        case Skeleton::kPipelined: return "Pipelined";
      }
      return "Unknown";
    });

TEST(StatelessUnits, NarrowWidthMasksOperands) {
  // A 32-bit-configured unit must ignore upper operand bits entirely.
  sim::Simulator sim;
  auto fu = make_arithmetic_unit(sim, {.width = 32});
  FuDriver drv(sim, "drv", fu->ports);
  FuRequest r;
  r.variety = isa::arith::variety(isa::arith::Op::kAdd);
  r.operand1 = 0xffffffff00000001ULL;
  r.operand2 = 0x1234567800000001ULL;
  drv.enqueue(r);
  sim.run_until([&] { return drv.completions().size() == 1; }, 50);
  EXPECT_EQ(drv.completions().front().result.data, 2u);
}

}  // namespace
}  // namespace fpgafu::fu

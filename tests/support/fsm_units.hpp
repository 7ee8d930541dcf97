#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fu/fsm_fu.hpp"
#include "fu/stateless_units.hpp"
#include "isa/muldiv.hpp"
#include "isa/types.hpp"

namespace fpgafu::testing {

/// A unit and the function code it serves.
using CodedUnit =
    std::pair<isa::FunctionCode, std::unique_ptr<fu::FunctionalUnit>>;

/// The stateless function codes, in the order make_fsm_units builds them.
inline constexpr std::array<isa::FunctionCode, 6> kFsmUnitCodes = {
    isa::fc::kArith, isa::fc::kLogic, isa::fc::kShift,
    isa::fc::kMulDiv, isa::fc::kFloat, isa::fc::kTrig};

/// One FSM-skeleton unit per stateless function code, unit i spending
/// `cycles[i]` clocks in its Execute state — the units that sleep through
/// Execute on a timed wake.  Multiply/divide retires DIVMOD as two records
/// (the `writes_second` predicate); it is built here rather than by
/// make_muldiv_unit, which reads an iteration count of 1 as "one bit per
/// clock".
inline std::vector<CodedUnit> make_fsm_units(
    sim::Simulator& sim, unsigned width,
    const std::array<std::uint32_t, 6>& cycles) {
  const auto fsm = [&](fu::StatelessFn fn, std::uint32_t n) {
    return std::make_unique<fu::FsmFu>(sim, "fsm", std::move(fn), n);
  };
  std::vector<CodedUnit> units;
  units.emplace_back(kFsmUnitCodes[0],
                     fsm(fu::arithmetic_core(width), cycles[0]));
  units.emplace_back(kFsmUnitCodes[1],
                     fsm(fu::logic_core(width), cycles[1]));
  units.emplace_back(kFsmUnitCodes[2],
                     fsm(fu::shift_core(width), cycles[2]));
  units.emplace_back(kFsmUnitCodes[3],
                     std::make_unique<fu::FsmFu>(sim, "dual_fsm",
                                                 fu::muldiv_core(width),
                                                 cycles[3],
                                                 isa::muldiv::writes_second));
  units.emplace_back(kFsmUnitCodes[4], fsm(fu::fp32_core(), cycles[4]));
  units.emplace_back(kFsmUnitCodes[5], fsm(fu::trig_core(), cycles[5]));
  return units;
}

}  // namespace fpgafu::testing

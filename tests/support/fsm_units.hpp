#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fu/fsm_fu.hpp"
#include "fu/stateless_units.hpp"
#include "isa/stock_units.hpp"

namespace fpgafu::testing {

/// A unit and the function code it serves.
using CodedUnit =
    std::pair<isa::FunctionCode, std::unique_ptr<fu::FunctionalUnit>>;

/// One FSM-skeleton unit per stock unit, in table order, unit i spending
/// `cycles[i]` clocks in its Execute state — the units that sleep through
/// Execute on a timed wake.  A unit with a second record retires it
/// (multiply/divide's DIVMOD).  Built here rather than by
/// fu::make_stock_unit, which gives an iterating unit its own iteration
/// count.
inline std::vector<CodedUnit> make_fsm_units(
    sim::Simulator& sim, unsigned width,
    const std::array<std::uint32_t, isa::kStockUnits.size()>& cycles) {
  std::vector<CodedUnit> units;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const isa::StockUnit& row = isa::kStockUnits[i];
    units.emplace_back(
        row.code, std::make_unique<fu::FsmFu>(
                      sim, row.writes_second != nullptr ? "dual_fsm" : "fsm",
                      fu::stock_core(row, width), cycles[i],
                      row.writes_second));
  }
  return units;
}

}  // namespace fpgafu::testing

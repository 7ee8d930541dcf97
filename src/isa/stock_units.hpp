#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "isa/types.hpp"

namespace fpgafu::isa {

/// One variety of a stock unit, as the assembler spells it.
struct StockOp {
  std::string_view mnemonic;
  VarietyCode variety = 0;
  Operands operands = Operands::kDab;
};

/// One stock functional unit — the case-study units of thesis
/// Tables 3.1-3.2 and their extensions — as the system builder, the
/// reference model, the assembler and the unit factories see it.  A new
/// stock unit is one row here plus its `isa/<unit>` module.
struct StockUnit {
  FunctionCode code;
  std::string_view name;         ///< component name (VCD probes read it)
  std::span<const StockOp> ops;  ///< the unit's `kAllOps`, in that order
  /// The unit's `evaluate` behind one signature (a unit that ignores the
  /// input flags or the width drops them).
  Result (*evaluate)(VarietyCode variety, Word a, Word b, FlagWord flags,
                     unsigned width);
  /// The varieties that retire a second record (DIVMOD); nullptr when
  /// every variety writes one.
  bool (*writes_second)(VarietyCode variety);
  /// FSM Execute cycles of a datapath that iterates (one result bit or one
  /// CORDIC rotation per clock); nullptr for a combinational datapath.
  std::uint32_t (*iterations)(unsigned width);
};

/// The stock units, one row each, in function-code order.
extern const std::array<StockUnit, 6> kStockUnits;

/// The row serving `code`, or nullptr when no stock unit serves it.
const StockUnit* stock_unit(FunctionCode code);

}  // namespace fpgafu::isa

#include "isa/stock_units.hpp"

#include "isa/arith.hpp"
#include "isa/fp32.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/shift.hpp"
#include "isa/trig.hpp"

namespace fpgafu::isa {
namespace {

/// A unit's varieties in `kAllOps` order, each spelt by the unit's own
/// `to_string` and taking the operands `form` gives it.
template <typename Op, std::size_t N, typename Form>
constexpr std::array<StockOp, N> ops_of(const std::array<Op, N>& all,
                                        Form form) {
  std::array<StockOp, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = StockOp{to_string(all[i]), variety(all[i]), form(all[i])};
  }
  return out;
}

constexpr auto kArithOps = ops_of(arith::kAllOps, [](arith::Op op) {
  switch (op) {
    case arith::Op::kAdc:
    case arith::Op::kSbb: return Operands::kDabS;
    case arith::Op::kInc:
    case arith::Op::kDec: return Operands::kDa;
    case arith::Op::kNeg: return Operands::kDb;
    case arith::Op::kCmp: return Operands::kAb;
    case arith::Op::kCmpb: return Operands::kAbS;
    default: return Operands::kDab;
  }
});
constexpr auto kLogicOps = ops_of(logic::kAllOps, [](logic::Op op) {
  switch (op) {
    case logic::Op::kNot: return Operands::kDb;
    case logic::Op::kPass: return Operands::kDa;
    case logic::Op::kClear:
    case logic::Op::kSet: return Operands::kD;
    default: return Operands::kDab;
  }
});
constexpr auto kShiftOps =
    ops_of(shift::kAllOps, [](shift::Op) { return Operands::kDab; });
constexpr auto kMulDivOps = ops_of(muldiv::kAllOps, [](muldiv::Op op) {
  return op == muldiv::Op::kDivMod ? Operands::kQRab : Operands::kDab;
});
constexpr auto kFp32Ops = ops_of(fp32::kAllOps, [](fp32::Op op) {
  return op == fp32::Op::kFcmp ? Operands::kAb : Operands::kDab;
});
constexpr auto kTrigOps =
    ops_of(trig::kAllOps, [](trig::Op) { return Operands::kDa; });

}  // namespace

constexpr std::array<StockUnit, 6> kStockUnits = {{
    {fc::kArith, "arith", kArithOps, &arith::evaluate, nullptr, nullptr},
    {fc::kLogic, "logic", kLogicOps,
     [](VarietyCode v, Word a, Word b, FlagWord, unsigned width) {
       return logic::evaluate(v, a, b, width);
     },
     nullptr, nullptr},
    {fc::kShift, "shift", kShiftOps,
     [](VarietyCode v, Word a, Word b, FlagWord, unsigned width) {
       return shift::evaluate(v, a, b, width);
     },
     nullptr, nullptr},
    {fc::kMulDiv, "muldiv", kMulDivOps,
     [](VarietyCode v, Word a, Word b, FlagWord, unsigned width) {
       return muldiv::evaluate(v, a, b, width);
     },
     &muldiv::writes_second,
     // A sequential shift-add multiplier / restoring divider: one bit per
     // clock.
     [](unsigned width) { return std::uint32_t{width}; }},
    {fc::kFloat, "fp32", kFp32Ops,
     [](VarietyCode v, Word a, Word b, FlagWord, unsigned) {
       return fp32::evaluate(v, a, b);
     },
     nullptr, nullptr},
    {fc::kTrig, "trig", kTrigOps,
     [](VarietyCode v, Word a, Word b, FlagWord, unsigned) {
       return trig::evaluate(v, a, b);
     },
     nullptr,
     // One CORDIC micro-rotation per clock.
     [](unsigned) { return std::uint32_t{trig::kIterations}; }},
}};

const StockUnit* stock_unit(FunctionCode code) {
  for (const StockUnit& unit : kStockUnits) {
    if (unit.code == code) {
      return &unit;
    }
  }
  return nullptr;
}

}  // namespace fpgafu::isa

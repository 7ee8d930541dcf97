#pragma once

#include <memory>
#include <string>

#include "fu/functional_unit.hpp"
#include "isa/stock_units.hpp"

namespace fpgafu::fu {

/// Which §2.3.4 skeleton a stateless unit is built from.
enum class Skeleton {
  kMinimal,        ///< combinational + output register (Fig. 5)
  kMinimalFwd,     ///< minimal with combinational ack forwarding
  kFsm,            ///< explicit FSM, area optimised (Fig. 6)
  kPipelined,      ///< fully pipelined with FIFOs (performance optimised)
};

/// Construction parameters for a stateless unit.
struct StatelessConfig {
  unsigned width = 32;                 ///< datapath width in bits
  Skeleton skeleton = Skeleton::kMinimal;
  std::uint32_t execute_cycles = 1;    ///< kFsm: datapath iteration count
  std::uint32_t pipeline_depth = 3;    ///< kPipelined
  std::size_t fifo_capacity = 8;       ///< kPipelined
  std::uint32_t initiation_interval = 1;  ///< kPipelined
};

/// The combinational core of a stock unit (isa/stock_units.hpp), bound to
/// a datapath width.  Exposed so custom units can reuse it.
StatelessFn stock_core(const isa::StockUnit& unit, unsigned width);

/// The stock unit serving `code`, named after its row unless `name` is
/// given, on the skeleton rules top::System builds with:
///  * a unit with a second record (multiply/divide's DIVMOD) is always on
///    the FSM skeleton, the only one that retires two records;
///  * a unit whose datapath iterates (multiply/divide, trig) moves from a
///    minimal skeleton to the FSM skeleton;
///  * on the FSM skeleton an iterating unit spends its row's iteration
///    count in Execute (the word width, or the CORDIC iterations), and
///    any other unit `cfg.execute_cycles`.
/// Throws SimError for a code no stock unit serves.
std::unique_ptr<FunctionalUnit> make_stock_unit(sim::Simulator& sim,
                                                isa::FunctionCode code,
                                                StatelessConfig cfg,
                                                std::string name = {});

/// The thesis' arithmetic unit (Table 3.1): the stock unit of fc::kArith.
std::unique_ptr<FunctionalUnit> make_arithmetic_unit(sim::Simulator& sim,
                                                     const StatelessConfig& cfg,
                                                     std::string name = "arith");

/// Wrap an arbitrary combinational core in the chosen skeleton.
std::unique_ptr<FunctionalUnit> make_stateless_unit(sim::Simulator& sim,
                                                    std::string name,
                                                    StatelessFn fn,
                                                    const StatelessConfig& cfg);

}  // namespace fpgafu::fu

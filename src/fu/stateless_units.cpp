#include "fu/stateless_units.hpp"

#include "fu/fsm_fu.hpp"
#include "fu/minimal_fu.hpp"
#include "fu/pipelined_fu.hpp"

namespace fpgafu::fu {

StatelessFn stock_core(const isa::StockUnit& unit, unsigned width) {
  return [evaluate = unit.evaluate, width](isa::VarietyCode v, isa::Word a,
                                           isa::Word b, isa::FlagWord f) {
    return evaluate(v, a, b, f, width);
  };
}

std::unique_ptr<FunctionalUnit> make_stateless_unit(sim::Simulator& sim,
                                                    std::string name,
                                                    StatelessFn fn,
                                                    const StatelessConfig& cfg) {
  switch (cfg.skeleton) {
    case Skeleton::kMinimal:
      return std::make_unique<MinimalFu>(sim, std::move(name), std::move(fn),
                                         /*ack_forward=*/false);
    case Skeleton::kMinimalFwd:
      return std::make_unique<MinimalFu>(sim, std::move(name), std::move(fn),
                                         /*ack_forward=*/true);
    case Skeleton::kFsm:
      return std::make_unique<FsmFu>(sim, std::move(name), std::move(fn),
                                     cfg.execute_cycles);
    case Skeleton::kPipelined:
      return std::make_unique<PipelinedFu>(sim, std::move(name), std::move(fn),
                                           cfg.pipeline_depth,
                                           cfg.fifo_capacity,
                                           cfg.initiation_interval);
  }
  throw SimError("unknown skeleton");
}

std::unique_ptr<FunctionalUnit> make_stock_unit(sim::Simulator& sim,
                                                isa::FunctionCode code,
                                                StatelessConfig cfg,
                                                std::string name) {
  const isa::StockUnit* unit = isa::stock_unit(code);
  check(unit != nullptr, "no stock unit serves function code " +
                             std::to_string(code));
  if (name.empty()) {
    name = unit->name;
  }
  const bool minimal = cfg.skeleton == Skeleton::kMinimal ||
                       cfg.skeleton == Skeleton::kMinimalFwd;
  if (unit->writes_second != nullptr ||
      (unit->iterations != nullptr && minimal)) {
    cfg.skeleton = Skeleton::kFsm;
  }
  if (cfg.skeleton == Skeleton::kFsm && unit->iterations != nullptr) {
    cfg.execute_cycles = unit->iterations(cfg.width);
  }
  StatelessFn core = stock_core(*unit, cfg.width);
  if (unit->writes_second != nullptr) {
    // The FSM retires the second record (thesis Fig. 2.18).
    return std::make_unique<FsmFu>(sim, std::move(name), std::move(core),
                                   cfg.execute_cycles, unit->writes_second);
  }
  return make_stateless_unit(sim, std::move(name), std::move(core), cfg);
}

std::unique_ptr<FunctionalUnit> make_arithmetic_unit(sim::Simulator& sim,
                                                     const StatelessConfig& cfg,
                                                     std::string name) {
  return make_stock_unit(sim, isa::fc::kArith, cfg, std::move(name));
}

}  // namespace fpgafu::fu

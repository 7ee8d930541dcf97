#include "fu/stateless_units.hpp"

#include "fu/fsm_fu.hpp"
#include "fu/minimal_fu.hpp"
#include "fu/pipelined_fu.hpp"
#include "isa/arith.hpp"
#include "isa/fp32.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/shift.hpp"
#include "isa/trig.hpp"

namespace fpgafu::fu {

StatelessFn arithmetic_core(unsigned width) {
  return [width](isa::VarietyCode v, isa::Word a, isa::Word b,
                 isa::FlagWord f) {
    const isa::arith::Result r = isa::arith::evaluate(v, a, b, f, width);
    return StatelessOut{r.value, r.flags, r.write_data, /*write_flags=*/true};
  };
}

StatelessFn logic_core(unsigned width) {
  return [width](isa::VarietyCode v, isa::Word a, isa::Word b, isa::FlagWord) {
    const isa::logic::Result r = isa::logic::evaluate(v, a, b, width);
    return StatelessOut{r.value, r.flags, r.write_data, /*write_flags=*/true};
  };
}

StatelessFn shift_core(unsigned width) {
  return [width](isa::VarietyCode v, isa::Word a, isa::Word b, isa::FlagWord) {
    const isa::shift::Result r = isa::shift::evaluate(v, a, b, width);
    return StatelessOut{r.value, r.flags, r.write_data, /*write_flags=*/true};
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

std::unique_ptr<FunctionalUnit> make_arithmetic_unit(sim::Simulator& sim,
                                                     const StatelessConfig& cfg,
                                                     std::string name) {
  return make_stateless_unit(sim, std::move(name), arithmetic_core(cfg.width),
                             cfg);
}

std::unique_ptr<FunctionalUnit> make_logic_unit(sim::Simulator& sim,
                                                const StatelessConfig& cfg,
                                                std::string name) {
  return make_stateless_unit(sim, std::move(name), logic_core(cfg.width), cfg);
}

std::unique_ptr<FunctionalUnit> make_shift_unit(sim::Simulator& sim,
                                                const StatelessConfig& cfg,
                                                std::string name) {
  return make_stateless_unit(sim, std::move(name), shift_core(cfg.width), cfg);
}

StatelessFn muldiv_core(unsigned width) {
  return [width](isa::VarietyCode v, isa::Word a, isa::Word b, isa::FlagWord) {
    const isa::muldiv::Result r = isa::muldiv::evaluate(v, a, b, width);
    StatelessOut o{r.value, r.flags, r.write_data, /*write_flags=*/true};
    o.second = r.value2;
    o.has_second = r.has_second;
    return o;
  };
}

StatelessFn fp32_core() {
  return [](isa::VarietyCode v, isa::Word a, isa::Word b, isa::FlagWord) {
    const isa::fp32::Result r = isa::fp32::evaluate(v, a, b);
    return StatelessOut{r.value, r.flags, r.write_data, /*write_flags=*/true};
  };
}

std::unique_ptr<FunctionalUnit> make_muldiv_unit(sim::Simulator& sim,
                                                 StatelessConfig cfg,
                                                 std::string name) {
  if (cfg.skeleton == Skeleton::kFsm) {
    if (cfg.execute_cycles <= 1) {
      // One quotient/product bit per clock: the sequential datapath.
      cfg.execute_cycles = cfg.width;
    }
    // The FSM variant retires DIVMOD's remainder as a second record (thesis
    // Fig. 2.18); the restoring divider has both results ready.
    return std::make_unique<FsmFu>(sim, std::move(name),
                                   muldiv_core(cfg.width), cfg.execute_cycles,
                                   isa::muldiv::writes_second);
  }
  // Other skeletons carry the single-output subset (DIVMOD's second result
  // is dropped there; use the FSM variant for dual output).
  return make_stateless_unit(sim, std::move(name), muldiv_core(cfg.width),
                             cfg);
}

std::unique_ptr<FunctionalUnit> make_fp32_unit(sim::Simulator& sim,
                                               const StatelessConfig& cfg,
                                               std::string name) {
  return make_stateless_unit(sim, std::move(name), fp32_core(), cfg);
}

StatelessFn trig_core() {
  return [](isa::VarietyCode v, isa::Word a, isa::Word b, isa::FlagWord) {
    const isa::trig::Result r = isa::trig::evaluate(v, a, b);
    return StatelessOut{r.value, r.flags, r.write_data, /*write_flags=*/true};
  };
}

std::unique_ptr<FunctionalUnit> make_trig_unit(sim::Simulator& sim,
                                               StatelessConfig cfg,
                                               std::string name) {
  if (cfg.skeleton == Skeleton::kFsm && cfg.execute_cycles <= 1) {
    cfg.execute_cycles = isa::trig::kIterations;  // one rotation per clock
  }
  return make_stateless_unit(sim, std::move(name), trig_core(), cfg);
}

}  // namespace fpgafu::fu

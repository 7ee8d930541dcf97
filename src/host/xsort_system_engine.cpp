#include "host/xsort_system_engine.hpp"

#include "isa/rtm_ops.hpp"
#include "util/error.hpp"

namespace fpgafu::host {

SystemXsortEngine::SystemXsortEngine(top::System& system)
    : copro_(system), capacity_(system.config().xsort.cells) {
  check(system.xsort_unit() != nullptr,
        "SystemXsortEngine requires a System built with with_xsort = true");
}

std::uint64_t SystemXsortEngine::op(xsort::XsortOp o, std::uint64_t operand) {
  isa::Program p;
  p.emit_put(kOperandReg, operand);

  isa::Instruction xop;
  xop.function = isa::fc::kXsort;
  xop.variety = static_cast<isa::VarietyCode>(o);
  xop.src1 = kOperandReg;
  xop.dst1 = kResultReg;
  p.emit(xop);

  isa::Instruction get = isa::rtm_instruction(isa::RtmOp::kGet);
  get.src1 = kResultReg;
  p.emit(get);

  const auto responses = copro_.call(p);
  check(responses.size() == 1 &&
            responses.front().type == msg::Response::Type::kData,
        "xsort system op: unexpected response stream");
  ++ops_;
  return responses.front().payload;
}

std::uint64_t SystemXsortEngine::cost_cycles() const {
  return copro_.system().simulator().cycle() - cost_base_;
}

void SystemXsortEngine::reset_cost() {
  cost_base_ = copro_.system().simulator().cycle();
  ops_ = 0;
}

}  // namespace fpgafu::host

#pragma once

#include <functional>
#include <string>

#include "fu/ports.hpp"
#include "sim/component.hpp"

namespace fpgafu::fu {

/// Data-path output of one operation (before destination routing): the
/// ISA's one result type.  An FsmFu built with a `writes_second` predicate
/// routes `second` to request.dst_reg2.
using StatelessOut = isa::Result;

/// The datapath core of a functional unit: variety code, two operands and
/// an input flag vector in, one output — the "black box circuit" of paper
/// Fig. 5.  A stateless unit's core is a pure function.  A stateful unit's
/// core may also update state the unit owns (a memory, a PRNG register, a
/// CAM table): every skeleton calls its core exactly once per accepted
/// operation, in accept order, from `commit()` — never from `eval()` — so
/// the state advances once per operation under every settle kernel.
using StatelessFn =
    std::function<StatelessOut(isa::VarietyCode, isa::Word, isa::Word,
                               isa::FlagWord)>;

/// The output of an operation that returns one word to both destinations:
/// kZero when `value` is zero, kError when `error` is set.
inline StatelessOut word_out(isa::Word value, bool error) {
  isa::FlagWord flags = 0;
  if (value == 0) {
    flags |= isa::FlagWord{1} << isa::flag::kZero;
  }
  if (error) {
    flags |= isa::FlagWord{1} << isa::flag::kError;
  }
  return StatelessOut{value, flags, /*write_data=*/true, /*write_flags=*/true};
}

/// Route a stateless core's output to the request's destinations: the
/// first (or only) completion record of every stateless skeleton.
inline FuResult stateless_result(const FuRequest& req, const StatelessOut& o) {
  FuResult r;
  r.data = o.value;
  r.flags = o.flags;
  r.dst_reg = req.dst_reg;
  r.dst_flag_reg = req.dst_flag_reg;
  r.write_data = o.write_data;
  r.write_flags = o.write_flags;
  return r;
}

/// Base class for every functional unit: a simulated hardware block with
/// the framework's standard port bundle.
class FunctionalUnit : public sim::Component {
 public:
  FunctionalUnit(sim::Simulator& sim, std::string name)
      : Component(sim, std::move(name)), ports(sim) {}

  FuPorts ports;

  /// True when the given operation writes a *second* data register
  /// (request.dst_reg2) through an additional arbiter transaction — the
  /// thesis Fig. 2.18 "Send Data 1 / Send Data 2" sequence.  The
  /// dispatcher locks dst_reg2 for such operations.
  virtual bool writes_second(isa::VarietyCode) const { return false; }

  /// Number of operations this unit has completed (acknowledged writes).
  std::uint64_t completed() const { return completed_; }

  void reset() override {
    ports.reset();
    completed_ = 0;
  }

 protected:
  std::uint64_t completed_ = 0;
};

}  // namespace fpgafu::fu

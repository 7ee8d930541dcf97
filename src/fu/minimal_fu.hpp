#pragma once

#include <string>

#include "fu/functional_unit.hpp"

namespace fpgafu::fu {

/// The thesis' *minimal configuration* of a functional unit (§2.3.4,
/// Fig. 5): combinational logic followed by an output register array.
///
/// `dispatch` acts as a clock enable that samples the operation's result
/// and destination register into the output registers and sets a registered
/// data-ready flag; the flag holds until the write arbiter acknowledges.
///
/// With `ack_forward` disabled the unit accepts an instruction every
/// *second* cycle (the §3.2.2 case-study behaviour); enabling it forwards
/// the arbiter's acknowledgement combinationally into `idle`, reaching one
/// instruction per cycle at the cost of a longer combinational path —
/// exactly the trade-off the thesis describes.
///
/// The core runs once per accepted operation, from `commit()`, so it may
/// keep state: the scratchpad, PRNG and CAM units are this skeleton around
/// a core that updates their memory, xorshift register or CAM table.
class MinimalFu : public FunctionalUnit {
 public:
  MinimalFu(sim::Simulator& sim, std::string name, StatelessFn fn,
            bool ack_forward = false)
      : FunctionalUnit(sim, std::move(name)),
        fn_(std::move(fn)),
        ack_forward_(ack_forward) {}

  void eval() override {
    // idle: no output pending, or (the combinational forward mechanism)
    // the pending output is acknowledged this cycle.  Only a forwarding
    // unit reads the ack here; any other samples it in commit() alone, so
    // an ack edge arms its commit without re-running this eval.
    ports.idle.set(!ready_ || (ack_forward_ && ports.data_acknowledge.get()));
    ports.data_ready.set(ready_);
    ports.result.set(out_);
  }

  void commit() override {
    const bool acked = ready_ && ports.data_acknowledge.get();
    const bool accept =
        ports.dispatch.get() && (!ready_ || (ack_forward_ && acked));
    if (acked) {
      ready_ = false;
      ++completed_;
    }
    if (accept) {
      const FuRequest& req = ports.request.get();
      out_ = stateless_result(
          req, fn_(req.variety, req.operand1, req.operand2, req.flags_in));
      ready_ = true;
    }
    if (accept || acked) {
      mark_active();
    }
  }

  void reset() override {
    FunctionalUnit::reset();
    out_ = FuResult{};
    ready_ = false;
  }

 private:
  StatelessFn fn_;
  bool ack_forward_;
  FuResult out_;        ///< the output register array
  bool ready_ = false;  ///< registered data-ready flag
};

}  // namespace fpgafu::fu

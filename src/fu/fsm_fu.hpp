#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "fu/functional_unit.hpp"
#include "sim/signal.hpp"

namespace fpgafu::fu {

/// The thesis' *area-optimised configuration*: an explicit finite state
/// machine (Fig. 6) sequencing Idle -> Execute -> Output -> Idle.
///
/// The skeleton reuses the datapath for several cycles instead of
/// replicating it (hence "area optimised"): `execute_cycles` models a
/// multi-cycle operation iterating on shared hardware.  Operations whose
/// variety produces no output (e.g. a compare whose flags are disabled)
/// take the Fig. 6 "Completion / No output" edge straight back to Idle.
///
/// The hardware counts the Execute state down; the model registers the
/// cycle the count would reach completion and sleeps until then
/// (`wake_at`), so a unit iterating on its datapath costs the event kernel
/// nothing between dispatch and completion.
class FsmFu : public FunctionalUnit {
 public:
  enum class State : std::uint8_t { kIdle, kExecute, kOutput };

  FsmFu(sim::Simulator& sim, std::string name, StatelessFn fn,
        std::uint32_t execute_cycles = 1)
      : FunctionalUnit(sim, std::move(name)),
        fn_(std::move(fn)),
        execute_cycles_(execute_cycles) {}

  State state() const { return state_.q(); }

  void eval() override {
    ports.idle.set(state_.q() == State::kIdle);
    ports.data_ready.set(state_.q() == State::kOutput);
    ports.result.set(out_.q());
  }

  void commit() override {
    const std::uint64_t now = simulator().cycle();
    State next = state_.q();
    switch (state_.q()) {
      case State::kIdle:
        if (ports.dispatch.get()) {
          const FuRequest req = ports.request.get();
          pending_req_.set_d(req);
          done_at_.set_d(now + std::max<std::uint32_t>(execute_cycles_, 1));
          next = State::kExecute;
        }
        break;
      case State::kExecute:
        if (now >= done_at_.q()) {
          // Completion: latch the datapath result.
          const FuRequest req = pending_req_.q();
          const StatelessOut o =
              fn_(req.variety, req.operand1, req.operand2, req.flags_in);
          FuResult r;
          r.data = o.value;
          r.flags = o.flags;
          r.dst_reg = req.dst_reg;
          r.dst_flag_reg = req.dst_flag_reg;
          r.write_data = o.write_data;
          r.write_flags = o.write_flags;
          if (!r.write_data && !r.write_flags) {
            // Fig. 6 "Completion / No output" edge.
            ++completed_;
            next = State::kIdle;
          } else {
            out_.set_d(r);
            next = State::kOutput;
          }
        } else {
          wake_at(done_at_.q());
        }
        break;
      case State::kOutput:
        if (ports.data_acknowledge.get()) {
          ++completed_;
          next = State::kIdle;
        }
        break;
    }
    state_.set_d(next);
    state_.tick();
    pending_req_.tick();
    done_at_.tick();
    out_.tick();
  }

  void reset() override {
    FunctionalUnit::reset();
    state_.reset();
    pending_req_.reset();
    done_at_.reset();
    out_.reset();
  }

 private:
  StatelessFn fn_;
  std::uint32_t execute_cycles_;
  sim::Reg<State> state_{*this, State::kIdle};
  sim::Reg<FuRequest> pending_req_{*this};
  /// Cycle whose commit completes the Execute state: dispatch cycle +
  /// execute_cycles (at least one).
  sim::Reg<std::uint64_t> done_at_{*this, 0};
  sim::Reg<FuResult> out_{*this};
};

}  // namespace fpgafu::fu

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "fu/functional_unit.hpp"

namespace fpgafu::fu {

/// The thesis' *area-optimised configuration*: an explicit finite state
/// machine (Fig. 6) sequencing Idle -> Execute -> Output -> [Output2] ->
/// Idle.
///
/// The skeleton reuses the datapath for several cycles instead of
/// replicating it (hence "area optimised"): `execute_cycles` models a
/// multi-cycle operation iterating on shared hardware.  Operations whose
/// variety produces no output (e.g. a compare whose flags are disabled)
/// take the Fig. 6 "Completion / No output" edge straight back to Idle.
///
/// A unit built with a `writes_second` predicate has the thesis Fig. 2.18
/// two-record completion path: an operation the predicate names whose core
/// output reports `has_second` retires through two sequential write-arbiter
/// transactions.  The first carries the flags and releases the flag-register
/// lock; the second (Output2) carries only `second` to request.dst_reg2.
/// The predicate mirrors `has_second` for the dispatcher, which must lock
/// dst_reg2 before the operands are even computed.  Without the predicate
/// the unit writes no second record.
///
/// The hardware counts the Execute state down; the model registers the
/// cycle the count would reach completion and sleeps until then
/// (`wake_at`), so a unit iterating on its datapath costs the event kernel
/// nothing between dispatch and completion.
class FsmFu : public FunctionalUnit {
 public:
  enum class State : std::uint8_t { kIdle, kExecute, kOutput, kOutput2 };
  using SecondPredicate = std::function<bool(isa::VarietyCode)>;

  FsmFu(sim::Simulator& sim, std::string name, StatelessFn fn,
        std::uint32_t execute_cycles = 1,
        SecondPredicate writes_second = nullptr)
      : FunctionalUnit(sim, std::move(name)),
        fn_(std::move(fn)),
        writes_second_(std::move(writes_second)),
        execute_cycles_(std::max<std::uint32_t>(execute_cycles, 1)) {}

  State state() const { return state_; }

  bool writes_second(isa::VarietyCode variety) const override {
    return writes_second_ && writes_second_(variety);
  }

  void eval() override {
    ports.idle.set(state_ == State::kIdle);
    ports.data_ready.set(state_ == State::kOutput ||
                         state_ == State::kOutput2);
    ports.result.set(state_ == State::kOutput2 ? second_ : out_);
  }

  void commit() override {
    // All clocked state here is plain fields: every transition reports
    // itself.  The Execute state sleeps until its completion cycle.
    const std::uint64_t now = simulator().cycle();
    switch (state_) {
      case State::kIdle:
        if (ports.dispatch.get()) {
          req_ = ports.request.get();
          done_at_ = now + execute_cycles_;
          state_ = State::kExecute;
          mark_active();
        }
        break;
      case State::kExecute:
        if (now >= done_at_) {
          complete();
          mark_active();
        } else {
          wake_at(done_at_);
        }
        break;
      case State::kOutput:
        if (ports.data_acknowledge.get()) {
          if (have_second_) {
            state_ = State::kOutput2;
          } else {
            ++completed_;
            state_ = State::kIdle;
          }
          mark_active();
        }
        break;
      case State::kOutput2:
        if (ports.data_acknowledge.get()) {
          ++completed_;
          state_ = State::kIdle;
          mark_active();
        }
        break;
    }
  }

  void reset() override {
    FunctionalUnit::reset();
    state_ = State::kIdle;
    req_ = FuRequest{};
    done_at_ = 0;
    have_second_ = false;
    out_ = FuResult{};
    second_ = FuResult{};
  }

 private:
  /// Completion: latch the datapath result (and the second record).
  void complete() {
    const StatelessOut o =
        fn_(req_.variety, req_.operand1, req_.operand2, req_.flags_in);
    if (!o.write_data && !o.write_flags) {
      // Fig. 6 "Completion / No output" edge.
      ++completed_;
      state_ = State::kIdle;
      return;
    }
    out_ = stateless_result(req_, o);
    have_second_ = o.has_second && writes_second(req_.variety);
    if (have_second_) {
      FuResult r;
      r.data = o.second;
      r.dst_reg = req_.dst_reg2;
      r.dst_flag_reg = req_.dst_flag_reg;
      r.write_data = true;
      r.unlock_flag_reg = false;  // released with the first record
      second_ = r;
    }
    state_ = State::kOutput;
  }

  StatelessFn fn_;
  SecondPredicate writes_second_;
  std::uint32_t execute_cycles_;
  State state_ = State::kIdle;
  FuRequest req_;
  std::uint64_t done_at_ = 0;  ///< cycle whose commit completes Execute
  bool have_second_ = false;
  FuResult out_;
  FuResult second_;  ///< the Output2 record
};

}  // namespace fpgafu::fu

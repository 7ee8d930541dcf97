#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "fu/functional_unit.hpp"
#include "sim/signal.hpp"

namespace fpgafu::fu {

/// Output of a dual-result operation.
struct DualOut {
  StatelessOut first;        ///< primary result (dst_reg) + flags
  isa::Word second = 0;      ///< secondary result (dst_reg2)
  bool has_second = false;   ///< whether the Send-Data-2 transaction occurs
};

using DualFn = std::function<DualOut(isa::VarietyCode, isa::Word, isa::Word,
                                     isa::FlagWord)>;

/// FSM skeleton with the thesis Fig. 2.18 two-record completion path:
/// Idle -> Execute(k) -> Send Data 1 (+flags) -> [Send Data 2] -> Idle.
///
/// Operations whose DualOut reports `has_second` retire through two
/// sequential write-arbiter transactions; the first carries the flags and
/// releases the flag-register lock, the second carries only dst_reg2.
/// The `second_pred` predicate mirrors `has_second` for the dispatcher
/// (which must lock dst_reg2 before the operands are even computed).
class DualFsmFu : public FunctionalUnit {
 public:
  using SecondPredicate = std::function<bool(isa::VarietyCode)>;

  DualFsmFu(sim::Simulator& sim, std::string name, DualFn fn,
            SecondPredicate second_pred, std::uint32_t execute_cycles = 1)
      : FunctionalUnit(sim, std::move(name)),
        fn_(std::move(fn)),
        second_pred_(std::move(second_pred)),
        execute_cycles_(execute_cycles) {}

  bool writes_second(isa::VarietyCode variety) const override {
    return second_pred_(variety);
  }

  void eval() override {
    ports.idle.set(state_ == State::kIdle);
    ports.data_ready.set(state_ == State::kOutput1 ||
                         state_ == State::kOutput2);
    ports.result.set(state_ == State::kOutput2 ? out2_ : out1_);
  }

  void commit() override {
    // All clocked state here is plain fields: self-report every transition.
    // The Execute state sleeps until its completion cycle (wake_at).
    const std::uint64_t now = simulator().cycle();
    switch (state_) {
      case State::kIdle:
        if (ports.dispatch.get()) {
          pending_req_ = ports.request.get();
          done_at_ = now + std::max<std::uint32_t>(execute_cycles_, 1);
          state_ = State::kExecute;
          mark_active();
        }
        break;
      case State::kExecute:
        if (now >= done_at_) {
          const FuRequest& req = pending_req_;
          const DualOut o =
              fn_(req.variety, req.operand1, req.operand2, req.flags_in);
          out1_.data = o.first.value;
          out1_.flags = o.first.flags;
          out1_.dst_reg = req.dst_reg;
          out1_.dst_flag_reg = req.dst_flag_reg;
          out1_.write_data = o.first.write_data;
          out1_.write_flags = o.first.write_flags;
          out1_.unlock_flag_reg = true;
          if (o.has_second) {
            out2_.data = o.second;
            out2_.flags = 0;
            out2_.dst_reg = req.dst_reg2;
            out2_.dst_flag_reg = req.dst_flag_reg;
            out2_.write_data = true;
            out2_.write_flags = false;
            out2_.unlock_flag_reg = false;
            have_second_ = true;
          } else {
            have_second_ = false;
          }
          state_ = State::kOutput1;
          mark_active();
        } else {
          wake_at(done_at_);
        }
        break;
      case State::kOutput1:
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
    done_at_ = 0;
    have_second_ = false;
    out1_ = FuResult{};
    out2_ = FuResult{};
  }

 private:
  enum class State : std::uint8_t { kIdle, kExecute, kOutput1, kOutput2 };

  DualFn fn_;
  SecondPredicate second_pred_;
  std::uint32_t execute_cycles_;
  State state_ = State::kIdle;
  FuRequest pending_req_;
  std::uint64_t done_at_ = 0;  ///< cycle whose commit completes Execute
  bool have_second_ = false;
  FuResult out1_;
  FuResult out2_;
};

}  // namespace fpgafu::fu

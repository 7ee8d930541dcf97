#pragma once

#include <algorithm>
#include <string>

#include "rtm/execution.hpp"
#include "rtm/fu_table.hpp"
#include "rtm/lock_manager.hpp"
#include "rtm/register_file.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace fpgafu::rtm {

/// Write arbiter (paper Fig. 4): multiplexes functional-unit completions
/// onto the register file's write port, one acknowledgement per cycle, and
/// services the execution stage's dedicated high-priority write port.
///
/// It is the single owner of register-file writes and of lock releases,
/// which is what makes out-of-order completion safe: the dispatcher's WAW
/// stall guarantees one in-flight writer per register, and the arbiter
/// retires that writer and frees the register atomically (in one clock
/// edge).
///
/// `round_robin` selects the grant policy between the thesis' simple fixed
/// priority and a fairness-preserving rotating priority (a design-choice
/// ablation — see DESIGN.md §6).
class WriteArbiter : public sim::Component {
 public:
  WriteArbiter(sim::Simulator& sim, std::string name, RegisterFile& regs,
               FlagRegisterFile& flags, LockManager& locks,
               FunctionalUnitTable& table, Execution& execution,
               sim::Counters& counters, bool round_robin = false)
      : Component(sim, std::move(name)),
        regs_(&regs),
        flags_(&flags),
        locks_(&locks),
        table_(&table),
        execution_(&execution),
        counters_(&counters),
        h_hp_data_(counters.handle("arbiter.hp_data")),
        h_hp_flags_(counters.handle("arbiter.hp_flags")),
        h_unit_writes_(counters.handle("arbiter.unit_writes")),
        h_contention_(counters.handle("arbiter.contention")),
        round_robin_(round_robin) {}

  void eval() override {
    // Grant exactly one requesting unit: the first ready slot, counting
    // from 0 (fixed priority) or from the slot after the last grant.
    grant_ = table_->next_ready(round_robin_ ? next_ : 0);
    // Every other ack is already low: only the previous grantee's and the
    // new one's need driving — unless a slot changed hands since, in which
    // case every slot is driven once, as on the first evaluation.
    if (table_->generation() != driven_generation_) {
      driven_generation_ = table_->generation();
      for (std::size_t i = 0; i < table_->size(); ++i) {
        if (table_->slot_active(static_cast<std::uint32_t>(i))) {
          drive_ack(i);
        }
      }
    } else if (acked_ != grant_) {
      // Ascending slot order, as the full sweep writes them.
      drive_ack(std::min(acked_, grant_));
      drive_ack(std::max(acked_, grant_));
    }
    acked_ = grant_;
  }

  void commit() override {
    // High-priority port: always granted.
    const HighPriorityWrite& w = execution_->hp.get();
    if (w.write_data) {
      regs_->write(w.dst_reg, w.data);
      locks_->unlock_data(w.dst_reg);
      counters_->bump(h_hp_data_);
    }
    if (w.write_flags) {
      flags_->write(w.dst_flag_reg, w.flags);
      locks_->unlock_flag(w.dst_flag_reg);
      counters_->bump(h_hp_flags_);
    }
    if (trace_ != nullptr && (w.write_data || w.write_flags)) {
      trace_->event(simulator().cycle(), "writeback.hp",
                    w.write_data ? w.dst_reg : w.dst_flag_reg);
    }
    // Granted functional-unit completion.
    if (grant_ != kNoGrant) {
      const fu::FuResult r =
          table_->unit(static_cast<std::uint32_t>(grant_)).ports.result.get();
      if (r.write_data) {
        regs_->write(r.dst_reg, r.data);
      }
      if (r.write_flags) {
        flags_->write(r.dst_flag_reg, r.flags);
      }
      // Destinations were locked at dispatch; the data register is
      // released on every transaction, the flag register only with the
      // record that carried the flags (see FuResult::unlock_flag_reg).
      locks_->unlock_data(r.dst_reg);
      if (r.unlock_flag_reg) {
        locks_->unlock_flag(r.dst_flag_reg);
      }
      counters_->bump(h_unit_writes_);
      if (trace_ != nullptr) {
        trace_->event(simulator().cycle(), unit_labels_[grant_], r.dst_reg);
      }
      if (round_robin_) {
        next_ = (grant_ + 1) % table_->size();
      }
    }
    // Contention statistic: units left waiting this cycle.
    const std::uint64_t waiting =
        table_->ready_count() -
        (grant_ != kNoGrant && table_->ready(grant_) ? 1u : 0u);
    if (waiting > 0) {
      counters_->bump(h_contention_, waiting);
    }
    if (w.write_data || w.write_flags || grant_ != kNoGrant || waiting > 0) {
      // Retirements mutate regs/flags/locks/counters (and next_); waiting
      // units bump the contention counter every cycle — all clocked
      // activity the wire tracker cannot see.
      mark_active();
    }
  }

  void reset() override {
    grant_ = kNoGrant;
    next_ = 0;
    acked_ = kNoGrant;
    driven_generation_ = kNeverDriven;
  }

  /// Attach an event trace recording every retirement (`writeback.hp`,
  /// `writeback.unit<i>`) with the written register as the value.
  void set_trace(sim::EventTrace* trace) { trace_ = trace; }

 private:
  static constexpr std::size_t kNoGrant = FunctionalUnitTable::kNone;
  static constexpr std::uint64_t kNeverDriven = ~std::uint64_t{0};

  /// Drive slot `i`'s acknowledge from the current grant (no-op for
  /// kNoGrant).
  void drive_ack(std::size_t i) {
    if (i != kNoGrant) {
      table_->unit(static_cast<std::uint32_t>(i))
          .ports.data_acknowledge.set(i == grant_);
    }
  }

  RegisterFile* regs_;
  FlagRegisterFile* flags_;
  LockManager* locks_;
  FunctionalUnitTable* table_;
  Execution* execution_;
  sim::Counters* counters_;
  sim::Counters::Handle h_hp_data_;
  sim::Counters::Handle h_hp_flags_;
  sim::Counters::Handle h_unit_writes_;
  sim::Counters::Handle h_contention_;
  sim::EventTrace* trace_ = nullptr;
  bool round_robin_;
  std::size_t grant_ = kNoGrant;
  std::size_t next_ = 0;
  /// Slot whose acknowledge eval() last drove high (kNoGrant: none), and
  /// the table generation the acks were last driven for.
  std::size_t acked_ = kNoGrant;
  std::uint64_t driven_generation_ = kNeverDriven;
  sim::IndexedLabels unit_labels_{"writeback.unit"};
};

}  // namespace fpgafu::rtm

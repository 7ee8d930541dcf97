#pragma once

#include <algorithm>
#include <optional>
#include <string>

#include "rtm/decoded.hpp"
#include "rtm/fu_table.hpp"
#include "rtm/lock_manager.hpp"
#include "rtm/register_file.hpp"
#include "sim/component.hpp"
#include "sim/handshake.hpp"
#include "sim/trace.hpp"

namespace fpgafu::rtm {

/// Dispatcher pipeline stage (paper §III): "Reads from the register file
/// take place in the dispatcher stage, and instructions that initiate a
/// functional unit operation transmit data to the functional unit through a
/// register in this stage."
///
/// Responsibilities:
///  * hazard checks against the lock manager — sources must be unlocked
///    (RAW) and destinations unlocked (WAW, so each register has at most
///    one in-flight writer and out-of-order completion stays unambiguous);
///  * operand fetch (up to three reads: src1, src2, source flag register);
///  * routing — functional-unit instructions are dispatched to their unit
///    when the unit asserts `idle`; RTM-internal instructions travel on to
///    the execution stage; instructions with unknown function codes become
///    in-order error responses;
///  * locking destination registers of everything it launches.
class Dispatcher : public sim::Component {
 public:
  Dispatcher(sim::Simulator& sim, std::string name, RegisterFile& regs,
             FlagRegisterFile& flags, LockManager& locks,
             FunctionalUnitTable& table, sim::Counters& counters)
      : Component(sim, std::move(name)),
        to_exec(sim),
        regs_(&regs),
        flags_(&flags),
        locks_(&locks),
        table_(&table),
        counters_(&counters),
        h_dispatch_unit_(counters.handle("dispatch.unit")),
        h_dispatch_exec_(counters.handle("dispatch.exec")),
        h_stall_lock_(counters.handle("stall.lock")),
        h_stall_unit_busy_(counters.handle("stall.unit_busy")),
        h_stall_sync_(counters.handle("stall.sync")) {}

  sim::Handshake<DecodedInst>* in = nullptr;  ///< from the decoder
  sim::Handshake<ExecPacket> to_exec;         ///< to the execution stage

  void bind(sim::Handshake<DecodedInst>& decoder_out) { in = &decoder_out; }

  /// Attach an event trace: every dispatch is recorded as
  /// `dispatch.unit<i>` / `dispatch.exec` with the instruction's sequence
  /// number as the value.
  void set_trace(sim::EventTrace* trace) { trace_ = trace; }

  /// True while an instruction is pending pre-dispatch: offered on the
  /// input channel but not yet routed to a functional unit or the
  /// execution stage (hazard stall, busy unit, or exec backpressure).
  ///
  /// This is part of the SYNC/quiescence condition.  The paper's pipeline
  /// has no global stall — system idleness must be composed from per-stage
  /// state, and each stage must answer for itself.  Relying on the fact
  /// that today's decoder happens to buffer the stalled instruction (and is
  /// itself checked) would silently break the moment the dispatcher's
  /// input is registered or fed by a different upstream stage.
  bool busy() const { return in != nullptr && in->valid.peek(); }

  /// Function code of the instruction pending pre-dispatch, if any.  The
  /// hot-swap path asks this before detaching: a stalled instruction that
  /// was admitted while its unit was attached must either dispatch or be
  /// drained as a typed error — silently detaching under it would turn a
  /// valid operation into an unknown-function fault (or wedge the
  /// pipeline), which is the PR-1 quiescence blind spot all over again.
  std::optional<isa::FunctionCode> pending_function() const {
    if (in == nullptr || !in->valid.peek()) {
      return std::nullopt;
    }
    return in->data.peek().inst.function;
  }

  void eval() override {
    // Decide the routing first, then drive every output wire exactly once
    // per evaluation pass (writing a wire twice with different values in
    // one pass would defeat the kernel's change detection).
    Plan plan;
    if (in->valid.get()) {
      plan = plan_for(in->data.get());
    }
    route_ = plan.route;
    stall_reason_ = plan.stall_reason;
    // The routing decision may have *annotated* an error onto the exec
    // packet (unknown function code, dual-output register fault) that the
    // decoder's copy of the instruction does not carry; commit() must lock
    // against the annotated view, or it would take a destination lock for a
    // faulting instruction whose writes never land — and since the
    // execution stage only releases locks for successful writes, that lock
    // would leak and wedge quiescence forever.
    exec_error_ = plan.packet.di.error;

    // Only the selected unit's dispatch is high, so only the previously
    // selected unit and the newly selected one need driving, in ascending
    // slot order.  The previous one is still attached: a unit whose
    // dispatch fired holds a destination lock until its write retires, and
    // Rtm::detach refuses a unit that holds locks.
    const std::uint32_t selected =
        plan.route == Route::kToUnit ? plan.unit_index : kNoUnit;
    drive_unit(std::min(driven_, selected), selected, plan.request);
    if (driven_ != selected) {
      drive_unit(std::max(driven_, selected), selected, plan.request);
    }
    driven_ = selected;
    if (plan.route == Route::kToExec) {
      to_exec.offer(plan.packet);
    } else {
      to_exec.withdraw();
    }
    switch (plan.route) {
      case Route::kNone:
        in->ready.set(!in->valid.get());
        break;
      case Route::kToUnit:
        in->ready.set(true);
        break;
      case Route::kToExec:
        in->ready.set(to_exec.ready.get());
        break;
    }
  }

  void commit() override {
    if (in == nullptr) {
      return;
    }
    if (!in->fire()) {
      if (stall_reason_ != kNoCounter) {
        // A stalled instruction bumps its stall counter every cycle — that
        // is clocked activity (the differential tests compare counters), so
        // this component must not be demoted while it stalls.
        counters_->bump(stall_reason_);
        mark_active();
      }
      return;
    }
    mark_active();  // a launch mutates locks/counters/trace
    const DecodedInst di = in->data.get();
    switch (route_) {
      case Route::kNone:
        break;
      case Route::kToUnit: {
        const std::uint32_t owner = unit_index_of(di);
        locks_->lock_data(di.inst.dst1, owner);
        locks_->lock_flag(di.inst.dst_flag, owner);
        if (table_->unit(owner).writes_second(di.inst.variety)) {
          locks_->lock_data(di.inst.aux, owner);
        }
        counters_->bump(h_dispatch_unit_);
        if (trace_ != nullptr) {
          trace_->event(simulator().cycle(), unit_labels_[owner], di.seq);
        }
        break;
      }
      case Route::kToExec: {
        DecodedInst annotated = di;
        annotated.error = exec_error_;
        lock_for_exec(annotated);
        counters_->bump(h_dispatch_exec_);
        if (trace_ != nullptr) {
          trace_->event(simulator().cycle(), "dispatch.exec", di.seq);
        }
        break;
      }
    }
  }

  void reset() override {
    to_exec.reset();
    route_ = Route::kNone;
    stall_reason_ = kNoCounter;
    exec_error_ = msg::ErrorCode::kNone;
    driven_ = kNoUnit;
  }

 private:
  enum class Route { kNone, kToUnit, kToExec };

  static constexpr std::uint32_t kNoUnit = ~std::uint32_t{0};

  /// Drive slot `i`'s dispatch (and, when selected, its request); no-op
  /// for kNoUnit.
  void drive_unit(std::uint32_t i, std::uint32_t selected,
                  const fu::FuRequest& request) {
    if (i == kNoUnit) {
      return;
    }
    fu::FunctionalUnit& unit = table_->unit(i);
    unit.ports.dispatch.set(i == selected);
    if (i == selected) {
      unit.ports.request.set(request);
    }
  }

  /// Sentinel for "no stall counter to bump this cycle".
  static constexpr sim::Counters::Handle kNoCounter =
      ~sim::Counters::Handle{0};

  struct Plan {
    Route route = Route::kNone;
    std::uint32_t unit_index = 0;
    fu::FuRequest request;
    ExecPacket packet;
    /// Counter to bump when the instruction could not launch this cycle.
    /// Accounting happens once, in commit() — eval() may re-run several
    /// times per cycle while the network settles.
    sim::Counters::Handle stall_reason = kNoCounter;
  };

  std::uint32_t unit_index_of(const DecodedInst& di) const {
    return table_->index_of(di.inst.function);
  }

  /// Decide, combinationally, what to do with the instruction this cycle.
  Plan plan_for(const DecodedInst& di) const {
    Plan plan;
    const isa::Instruction& inst = di.inst;

    // Decode-time faults go straight to the execution stage to be reported
    // in order; they touch no registers.
    if (di.error != msg::ErrorCode::kNone) {
      plan.route = Route::kToExec;
      plan.packet.di = di;
      return plan;
    }

    if (inst.function != isa::fc::kRtm) {
      fu::FunctionalUnit* unit = table_->find(inst.function);
      if (unit == nullptr) {
        // A code that is *known* but momentarily without a dispatchable
        // unit (draining ahead of an eviction, or loading after one) gets
        // the retryable kUnitUnavailable, distinct from the permanent
        // kUnknownFunction — hosts re-submit after the swap instead of
        // failing the program.
        plan.route = Route::kToExec;
        plan.packet.di = di;
        plan.packet.di.error = table_->unavailable(inst.function)
                                   ? msg::ErrorCode::kUnitUnavailable
                                   : msg::ErrorCode::kUnknownFunction;
        return plan;
      }
      // Dual-output operations additionally write dst_reg2 (the aux
      // field); it must exist and differ from dst1 (one writer per
      // register).
      const bool dual = unit->writes_second(inst.variety);
      if (dual && (!regs_->valid(inst.aux) || inst.aux == inst.dst1)) {
        plan.route = Route::kToExec;
        plan.packet.di = di;
        plan.packet.di.error = msg::ErrorCode::kBadRegister;
        return plan;
      }
      // RAW on all three sources; WAW on every destination.
      if (locks_->data_locked(inst.src1) || locks_->data_locked(inst.src2) ||
          locks_->flag_locked(inst.src_flag) ||
          locks_->data_locked(inst.dst1) ||
          locks_->flag_locked(inst.dst_flag) ||
          (dual && locks_->data_locked(inst.aux))) {
        plan.stall_reason = h_stall_lock_;
        return plan;  // kNone
      }
      if (!unit->ports.idle.get()) {
        plan.stall_reason = h_stall_unit_busy_;
        return plan;
      }
      plan.route = Route::kToUnit;
      plan.unit_index = table_->index_of(inst.function);
      plan.request.variety = inst.variety;
      plan.request.operand1 = regs_->read(inst.src1);
      plan.request.operand2 = regs_->read(inst.src2);
      plan.request.flags_in = flags_->read(inst.src_flag);
      plan.request.dst_reg = inst.dst1;
      plan.request.dst_flag_reg = inst.dst_flag;
      plan.request.dst_reg2 = inst.aux;
      return plan;
    }

    // RTM-internal instruction.
    using isa::RtmOp;
    const auto op = static_cast<RtmOp>(inst.variety);
    bool stalled = false;
    switch (op) {
      case RtmOp::kNop:
        break;
      case RtmOp::kPutVec:
      case RtmOp::kGetVec:
        // Burst headers never reach the dispatcher: the decoder expands
        // them into per-register kPut/kGet sub-instructions.
        break;
      case RtmOp::kSync:
        // Barrier: every architecturally visible write has landed.
        stalled = locks_->held() != 0;
        break;
      case RtmOp::kCopy:
        stalled = locks_->data_locked(inst.src1) ||
                  locks_->data_locked(inst.dst1);
        break;
      case RtmOp::kCopyFlags:
        stalled = locks_->flag_locked(inst.src_flag) ||
                  locks_->flag_locked(inst.dst_flag);
        break;
      case RtmOp::kPut:
      case RtmOp::kPutImm:
        stalled = locks_->data_locked(inst.dst1);
        break;
      case RtmOp::kPutFlags:
        stalled = locks_->flag_locked(inst.dst_flag);
        break;
      case RtmOp::kGet:
        stalled = locks_->data_locked(inst.src1);
        break;
      case RtmOp::kGetFlags:
        stalled = locks_->flag_locked(inst.src_flag);
        break;
    }
    if (stalled) {
      plan.stall_reason = op == RtmOp::kSync ? h_stall_sync_ : h_stall_lock_;
      return plan;
    }
    plan.route = Route::kToExec;
    plan.packet.di = di;
    // Operand fetch for the ops that read.
    switch (op) {
      case RtmOp::kCopy:
      case RtmOp::kGet:
        plan.packet.src1_value = regs_->read(inst.src1);
        break;
      case RtmOp::kCopyFlags:
      case RtmOp::kGetFlags:
        plan.packet.src_flag_value = flags_->read(inst.src_flag);
        break;
      default:
        break;
    }
    return plan;
  }

  /// Lock the destinations an execution-stage op will write (released by
  /// the write arbiter when the high-priority write lands).
  void lock_for_exec(const DecodedInst& di) {
    if (di.error != msg::ErrorCode::kNone) {
      return;
    }
    using isa::RtmOp;
    switch (static_cast<RtmOp>(di.inst.variety)) {
      case RtmOp::kCopy:
      case RtmOp::kPut:
      case RtmOp::kPutImm:
        locks_->lock_data(di.inst.dst1, LockManager::kExecutionOwner);
        break;
      case RtmOp::kCopyFlags:
      case RtmOp::kPutFlags:
        locks_->lock_flag(di.inst.dst_flag, LockManager::kExecutionOwner);
        break;
      default:
        break;
    }
  }

  RegisterFile* regs_;
  FlagRegisterFile* flags_;
  LockManager* locks_;
  FunctionalUnitTable* table_;
  sim::Counters* counters_;
  sim::Counters::Handle h_dispatch_unit_;
  sim::Counters::Handle h_dispatch_exec_;
  sim::Counters::Handle h_stall_lock_;
  sim::Counters::Handle h_stall_unit_busy_;
  sim::Counters::Handle h_stall_sync_;
  sim::EventTrace* trace_ = nullptr;
  Route route_ = Route::kNone;
  sim::Counters::Handle stall_reason_ = kNoCounter;
  /// Error the routing decision annotated onto the exec packet this cycle
  /// (kNone when the instruction is clean); see eval().
  msg::ErrorCode exec_error_ = msg::ErrorCode::kNone;
  /// Slot whose dispatch eval() last drove high (kNoUnit: none).
  std::uint32_t driven_ = kNoUnit;
  sim::IndexedLabels unit_labels_{"dispatch.unit"};
};

}  // namespace fpgafu::rtm

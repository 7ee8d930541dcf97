#pragma once

#include <memory>
#include <string>

#include "rtm/decoder.hpp"
#include "rtm/dispatcher.hpp"
#include "rtm/execution.hpp"
#include "rtm/fu_table.hpp"
#include "rtm/lock_manager.hpp"
#include "rtm/message_encoder.hpp"
#include "rtm/register_file.hpp"
#include "rtm/write_arbiter.hpp"

namespace fpgafu::rtm {

/// Typed refusal from Rtm::detach: the unit cannot be removed *right now*
/// because work for it is still in the pipeline — a write in flight, or an
/// instruction stalled pre-dispatch that was admitted while the unit was
/// attached.  Callers that want to remove the unit under live traffic use
/// the drain protocol instead (begin_detach / detach_drained /
/// finish_detach) rather than catch-and-spin on this.
class DetachBusy : public SimError {
 public:
  using SimError::SimError;
};

/// Configuration generics of the register transfer machine — the VHDL-style
/// size parameters the paper's controller exposes ("the architecture of the
/// controller is specified as a set of generics in VHDL").
struct RtmConfig {
  unsigned word_width = 32;      ///< register word size, multiple of 32 bits
  std::size_t data_regs = 32;    ///< main register file entries
  std::size_t flag_regs = 8;     ///< flag register file entries
  std::size_t encoder_depth = 4; ///< response elasticity buffer
  bool round_robin_arbiter = false;  ///< write-arbiter grant policy
};

/// The register transfer machine: the paper's central controller (Fig. 4),
/// assembled from its pipeline stages.
///
/// External connections:
///  * `instruction_in()` — bind the message buffer's 64-bit stream output
///    here (Rtm::bind_input).
///  * `response_out()` — the encoder drives the message serialiser's input
///    (Rtm::bind_output).
///  * `attach()` — register functional units under their function codes.
class Rtm {
 public:
  Rtm(sim::Simulator& sim, const RtmConfig& config)
      : config_(config),
        regs_(config.data_regs, config.word_width),
        flags_(config.flag_regs),
        locks_(config.data_regs, config.flag_regs),
        decoder_(sim, "decoder", regs_, flags_),
        dispatcher_(sim, "dispatcher", regs_, flags_, locks_, table_,
                    counters_),
        execution_(sim, "execution"),
        arbiter_(sim, "write_arbiter", regs_, flags_, locks_, table_,
                 execution_, counters_, config.round_robin_arbiter),
        encoder_(sim, "message_encoder", config.encoder_depth) {
    dispatcher_.bind(decoder_.out);
    execution_.bind(dispatcher_.to_exec);
    encoder_.bind_in(execution_.resp_out);
    // The dispatcher's eval() reads the lock manager and both register
    // files through plain member access; wake it whenever they mutate so
    // the event kernel's wire tracker cannot miss the side channel.
    locks_.set_observer(&dispatcher_);
    regs_.set_observer(&dispatcher_);
    flags_.set_observer(&dispatcher_);
  }

  /// Attach a functional unit under an instruction function code.
  void attach(isa::FunctionCode code, fu::FunctionalUnit& unit) {
    table_.attach(code, unit);
    // The arbiter grants from the table's ready set instead of reading
    // data_ready, so the kernel cannot see that dependency on its own.
    unit.ports.data_ready.sensitive_to(arbiter_);
    // Both the dispatcher and the arbiter read the table in eval();
    // reconfiguration is a non-Wire change they must observe.
    dispatcher_.wake();
    arbiter_.wake();
    unit.wake();
  }

  /// Detach the unit under `code` — the partial-reconfiguration analogue
  /// (paper related work [7]): later instructions with this code become
  /// error responses until something else is attached.  Refuses with the
  /// typed DetachBusy while the unit still owns register locks (writes in
  /// flight) *or* an instruction for this code sits stalled pre-dispatch
  /// (the same blind spot as the PR-1 quiescence bug: that instruction was
  /// admitted under the attached contract and nothing else accounts for
  /// it).  The caller should quiesce first (e.g. a SYNC), or use the drain
  /// protocol below to remove a unit under live traffic.
  void detach(isa::FunctionCode code) {
    const std::uint32_t index = table_.index_of(code);
    if (unit_writes_in_flight(index)) {
      throw DetachBusy("detach: unit still has a write in flight");
    }
    if (dispatcher_.pending_function() == code) {
      throw DetachBusy(
          "detach: an instruction for this code is stalled pre-dispatch; "
          "drain it first (begin_detach) or quiesce with a SYNC");
    }
    table_.detach(code);
    dispatcher_.wake();
    arbiter_.wake();
  }

  // -- Hot-swap drain protocol ----------------------------------------------
  /// Start removing `code` under live traffic: the dispatcher stops
  /// routing instructions to the unit — new (and stalled) instructions for
  /// the code drain as typed kUnitUnavailable error responses — while
  /// in-flight writes keep retiring through the arbiter.  Poll
  /// detach_drained() while advancing the clock, then finish_detach().
  void begin_detach(isa::FunctionCode code) {
    table_.set_draining(code, true);
    dispatcher_.wake();
    arbiter_.wake();
  }

  /// True when a draining unit has fully quiesced: no register locks owned
  /// by it and no instruction for its code pending pre-dispatch.
  bool detach_drained(isa::FunctionCode code) const {
    return !unit_writes_in_flight(table_.index_of(code)) &&
           dispatcher_.pending_function() != code;
  }

  /// Complete a begin_detach(): remove the unit from the table and declare
  /// the code unavailable (subsequent instructions keep yielding
  /// kUnitUnavailable — the slot is empty but the code is still known).
  /// Requires detach_drained(code).
  void finish_detach(isa::FunctionCode code) {
    check(detach_drained(code),
          "finish_detach: unit has not drained (writes in flight or an "
          "instruction stalled pre-dispatch)");
    table_.detach(code);
    table_.mark_unavailable(code);
    dispatcher_.wake();
    arbiter_.wake();
  }

  /// Declare a detached code known-but-unavailable (a hot-swap manager
  /// registered it; its image is not loaded yet): instructions for it
  /// yield kUnitUnavailable instead of kUnknownFunction.
  void declare_unavailable(isa::FunctionCode code) {
    table_.mark_unavailable(code);
    dispatcher_.wake();
  }

  /// Bind the instruction-stream input (message buffer output).
  void bind_input(sim::Handshake<isa::Word>& stream) { decoder_.bind(stream); }

  /// Bind the response output (message serialiser input).
  void bind_output(sim::Handshake<msg::Response>& serializer_in) {
    encoder_.bind_out(serializer_in);
  }

  /// True when no instruction is anywhere in the pipeline and every
  /// register write has retired (responses may still sit in the link or
  /// serialiser downstream of the encoder).
  ///
  /// Each stage answers for itself: the decoder (buffered words and burst
  /// expansion), the dispatcher (an instruction offered but not yet
  /// routed), the execution stage, outstanding register locks (in-flight
  /// functional-unit writes), and buffered responses.  The dispatcher term
  /// closes a hole: an instruction stalled pre-dispatch on a busy unit
  /// with zero locks held is invisible to every other term unless the
  /// upstream stage happens to buffer it.
  bool quiescent() const {
    return !decoder_.busy() && !dispatcher_.busy() && !execution_.busy() &&
           locks_.held() == 0 && encoder_.buffered() == 0;
  }

  /// Clear architectural state (register files and locks).  The simulator's
  /// reset() restores the pipeline components; this restores the RAMs,
  /// which in hardware are not touched by the reset line.
  void clear_state() {
    regs_.clear();
    flags_.clear();
    locks_.clear();
  }

  const RtmConfig& config() const { return config_; }
  RegisterFile& regs() { return regs_; }
  const RegisterFile& regs() const { return regs_; }
  FlagRegisterFile& flags() { return flags_; }
  const FlagRegisterFile& flags() const { return flags_; }
  const LockManager& locks() const { return locks_; }
  const Dispatcher& dispatcher() const { return dispatcher_; }
  const FunctionalUnitTable& table() const { return table_; }
  sim::Counters& counters() { return counters_; }
  const sim::Counters& counters() const { return counters_; }

  /// Attach an event trace recording dispatches and writebacks — the
  /// controller-level waveform a VHDL user would inspect.  Pass nullptr to
  /// detach.
  void set_trace(sim::EventTrace* trace) {
    dispatcher_.set_trace(trace);
    arbiter_.set_trace(trace);
  }
  std::uint64_t instructions_decoded() const {
    return decoder_.decoded_count();
  }

 private:
  /// True while the unit at table `index` still owns any register lock —
  /// i.e. a dispatched instruction's writeback has not retired yet.
  bool unit_writes_in_flight(std::uint32_t index) const {
    for (std::size_t r = 0; r < regs_.size(); ++r) {
      if (locks_.data_locked(static_cast<isa::RegNum>(r)) &&
          locks_.data_owner(static_cast<isa::RegNum>(r)) == index) {
        return true;
      }
    }
    for (std::size_t r = 0; r < flags_.size(); ++r) {
      if (locks_.flag_locked(static_cast<isa::RegNum>(r)) &&
          locks_.flag_owner(static_cast<isa::RegNum>(r)) == index) {
        return true;
      }
    }
    return false;
  }

  RtmConfig config_;
  RegisterFile regs_;
  FlagRegisterFile flags_;
  LockManager locks_;
  FunctionalUnitTable table_;
  sim::Counters counters_;
  Decoder decoder_;
  Dispatcher dispatcher_;
  Execution execution_;
  WriteArbiter arbiter_;
  MessageEncoder encoder_;
};

}  // namespace fpgafu::rtm

#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "host/driver.hpp"
#include "isa/program.hpp"
#include "msg/response.hpp"
#include "sim/counters.hpp"
#include "top/system.hpp"

namespace fpgafu::host {

/// Host-side blocking convenience API for a coprocessor System.
///
/// This is the software half of the paper's arrangement ("the main program
/// is written in C or any other programming language, and runs in one or
/// more CPUs which communicate via the interface with a set of functional
/// units").  It is a thin façade over the host::Driver (the non-blocking
/// link state machine: tx queue + CRC-checked response deframing) and the
/// host::Pump (the one owner of clock advancement): every blocking call
/// here is "enqueue onto the Driver, then Pump until done or the Deadline
/// expires" — one loop, whose Deadline covers the send as well.  Callers
/// that want to integrate with their own event loop can use `driver()` /
/// `pump()` directly.
///
/// From the software's point of view the coprocessor is "a fast I/O
/// device" it spins on; the spin itself lives in Pump, not here.
class Coprocessor {
 public:
  explicit Coprocessor(top::System& system)
      : driver_(system), pump_(system.simulator(), driver_) {}

  // -- Asynchronous interface ----------------------------------------------
  /// Send one 64-bit stream word (2 link words), as submit() does.
  void submit_word(isa::Word word) { submit(std::span(&word, 1)); }

  /// Send a run of stream words.  They go onto the link at once; only
  /// when a bounded downstream buffer refuses some does this block,
  /// pumping the clock (arrived upstream words keep draining into the
  /// receive window, so a full-duplex exchange cannot deadlock) until the
  /// rest are sent; SimError after kDefaultCallBudgetCycles.
  void submit(std::span<const isa::Word> words);

  /// Send a whole program.
  void submit(const isa::Program& program) { submit(program.words()); }

  /// Non-blocking: return the next response whose complete frame has
  /// arrived and verified.
  std::optional<msg::Response> poll() { return driver_.poll(); }

  /// Drop any partially deframed link words and restart framing from the
  /// next word to arrive (Driver::realign: words still queued go out).
  /// Wired automatically to call watchdogs; harmless to call at any frame
  /// boundary.
  void reset() { driver_.realign(); }

  // -- Blocking conveniences -------------------------------------------------
  /// Send a program and run the clock until all of its responses arrived
  /// (plus any extra error responses — collected until the system drains).
  /// `max_cycles` covers the send too: words a bounded downlink refuses
  /// leave from the same loop.
  std::vector<msg::Response> call(
      const isa::Program& program,
      std::uint64_t max_cycles = kDefaultCallBudgetCycles);

  /// Wait for the next single response (sending any words still queued).
  msg::Response wait_response(
      std::uint64_t max_cycles = kDefaultCallBudgetCycles);

  /// Register file access through PUT/GET round trips.
  void write_reg(isa::RegNum reg, isa::Word value);
  isa::Word read_reg(isa::RegNum reg);
  isa::FlagWord read_flags(isa::RegNum flag_reg);

  /// Burst register access through PUTV/GETV — one header word per burst
  /// instead of one instruction word per register.
  void write_regs(isa::RegNum base, const std::vector<isa::Word>& values);
  std::vector<isa::Word> read_regs(isa::RegNum base, std::uint8_t count);

  /// Issue a SYNC barrier and wait for its completion.
  void sync();

  /// Total responses received so far.
  std::uint64_t responses_received() const {
    return driver_.responses_received();
  }

  /// Host-side framing statistics (host.crc_resyncs).
  const sim::Counters& counters() const { return driver_.counters(); }

  top::System& system() { return driver_.system(); }
  const top::System& system() const { return driver_.system(); }

  /// The underlying non-blocking link state machine.
  Driver& driver() { return driver_; }
  /// The clock owner every blocking convenience above runs on.  Shared with
  /// ReliableTransport and Farm shards so one System has one pump.
  Pump& pump() { return pump_; }

 private:
  /// Send one RTM instruction and wait for its single response, which
  /// must be of type `want` (`what` names the call in the diagnostic).
  msg::Response exchange(const isa::Instruction& inst,
                         msg::Response::Type want, std::string_view what);

  Driver driver_;
  Pump pump_;
};

}  // namespace fpgafu::host

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "host/driver.hpp"
#include "isa/program.hpp"
#include "msg/response.hpp"
#include "sim/trace.hpp"
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
/// expires".  Callers that want to integrate with their own event loop can
/// use `driver()` / `pump()` directly.
///
/// From the software's point of view the coprocessor is "a fast I/O
/// device" it spins on; the spin itself lives in Pump, not here.
class Coprocessor {
 public:
  explicit Coprocessor(top::System& system)
      : driver_(system), pump_(system.simulator(), driver_) {}

  // -- Asynchronous interface ----------------------------------------------
  /// Queue one 64-bit stream word for transmission (2 link words).  Blocks
  /// (stepping the clock) while the bounded downstream link buffer is full;
  /// arrived upstream words keep draining into the receive window during
  /// the wait, so a full-duplex exchange cannot deadlock.
  void submit_word(isa::Word word) { submit(std::span(&word, 1)); }

  /// Queue a run of stream words, then block as submit_word does: one link
  /// service for the whole run while the link has room.
  void submit(std::span<const isa::Word> words);

  /// Queue a whole program.
  void submit(const isa::Program& program) { submit(program.words()); }

  /// Non-blocking: return the next response whose complete frame has
  /// arrived and verified.
  std::optional<msg::Response> poll() { return driver_.poll(); }

  /// Drop any partially deframed link words and restart framing from the
  /// next word to arrive.  Wired automatically to system reset and call
  /// watchdogs; harmless to call at any frame boundary.
  void reset() { driver_.reset(); }

  // -- Blocking conveniences -------------------------------------------------
  /// Submit a program and run the clock until all of its responses arrived
  /// (plus any extra error responses — collected until the system drains).
  std::vector<msg::Response> call(
      const isa::Program& program,
      std::uint64_t max_cycles = kDefaultCallBudgetCycles);

  /// Wait for the next single response.
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
  Driver driver_;
  Pump pump_;
};

}  // namespace fpgafu::host

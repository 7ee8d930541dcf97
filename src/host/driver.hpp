#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "isa/program.hpp"
#include "msg/response.hpp"
#include "sim/trace.hpp"
#include "top/system.hpp"
#include "util/ring_buffer.hpp"

namespace fpgafu::host {

/// Default clock budget for one blocking host call.  Shared by every
/// blocking façade (Coprocessor::call / wait_response, host::Farm
/// submissions) so "how long may a call spin before the watchdog declares
/// the hardware wedged" is one policy, not several magic numbers.
inline constexpr std::uint64_t kDefaultCallBudgetCycles = 10'000'000;

/// A cycle-count watchdog: "this operation may consume at most `budget`
/// cycles, measured from now".  Deadlines are the uniform timeout policy of
/// the host layer — every blocking loop checks one Deadline instead of
/// hand-rolling its own `cycle - start >= max` arithmetic.
///
/// A Deadline survives a simulator reset underneath it: expiry is tracked
/// as a remaining-budget count re-anchored whenever the cycle counter jumps
/// backwards, so a watchdog cannot be disarmed by the rewind.
class Deadline {
 public:
  /// Arm a deadline `budget` cycles from the simulator's current cycle.
  Deadline(const sim::Simulator& sim, std::uint64_t budget)
      : sim_(&sim), budget_(budget), anchor_(sim.cycle()), spent_(0) {}

  /// A deadline that never expires (legacy unbounded spins, e.g. the
  /// submit path, which is bounded by the link draining instead).
  static Deadline unbounded(const sim::Simulator& sim) {
    return Deadline(sim, std::numeric_limits<std::uint64_t>::max());
  }

  bool unlimited() const {
    return budget_ == std::numeric_limits<std::uint64_t>::max();
  }

  std::uint64_t budget() const { return budget_; }

  /// Cycles consumed since the deadline was armed (reset-proof).
  std::uint64_t spent() const {
    const std::uint64_t now = sim_->cycle();
    if (now >= anchor_) {
      return spent_ + (now - anchor_);
    }
    // The simulator was reset (cycle counter rewound) while this deadline
    // was armed; the budget already consumed stays consumed.
    return spent_;
  }

  std::uint64_t remaining() const {
    const std::uint64_t used = spent();
    return used >= budget_ ? 0 : budget_ - used;
  }

  bool expired() const { return !unlimited() && spent() >= budget_; }

  /// Throw SimError("<what>: watchdog expired after N cycles") when
  /// expired.  `what` names the operation for the diagnostic; the message
  /// is only built on the throw.
  void enforce(std::string_view what) const {
    if (expired()) {
      fail_expired(what);
    }
  }

  /// Fold elapsed cycles into the consumed-budget count and re-anchor at
  /// the current cycle.  The Pump calls this every iteration, so a reset
  /// that rewinds the cycle counter mid-loop cannot disarm the watchdog:
  /// budget consumed before the rewind stays consumed.
  void observe() {
    spent_ = spent();
    anchor_ = sim_->cycle();
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] void fail_expired(
      std::string_view what) const;

  const sim::Simulator* sim_;
  std::uint64_t budget_;
  std::uint64_t anchor_;  ///< cycle() when (re-)anchored
  std::uint64_t spent_;   ///< cycles consumed before the last re-anchor
};

/// Non-blocking host-side link state machine.
///
/// The Driver owns everything about *talking on the link* and nothing about
/// *advancing simulated time*: it keeps a bounded-link transmit queue and
/// the CRC-checked response deframing window, and exposes `service()` as
/// its single non-blocking quantum — push queued words while the downstream
/// buffer has space, drain arrived upstream words into the window.  Callers
/// that need to block (Coprocessor's conveniences, ReliableTransport, Farm
/// shards) pair a Driver with a Pump; callers integrating into their own
/// event loop call `service()`/`poll()` directly and step the clock
/// themselves.
///
/// The link is serviced once per simulated cycle.  Words reach the host's
/// receive side, and downstream buffer space frees, only on a clock edge,
/// so after one service a second one in the same cycle could only move
/// words enqueued since: it does exactly that and nothing else, and with
/// nothing enqueued it returns at once.  poll() services the same way, so
/// a caller polling in a loop touches the link once and then drains frames
/// already in the deframing window.
///
/// Deframing is checksum-verified: a response is only accepted when a full
/// frame passes `Response::frame_ok`; a failing window slides forward one
/// word at a time (counted as `host.crc_resyncs`) until it realigns.  The
/// Driver watches the simulator's reset generation: if the system is reset
/// under it, partially deframed words and unsent queued words are discarded
/// instead of corrupting the next exchange.
class Driver {
 public:
  explicit Driver(top::System& system)
      : system_(&system),
        reset_generation_(system.simulator().reset_generation()),
        crc_resyncs_(stats_.handle("host.crc_resyncs")) {}

  // -- Transmit side ---------------------------------------------------------
  /// Queue one 64-bit stream word (2 link words) for transmission.  Never
  /// blocks; the words leave on subsequent service() quanta as the link
  /// accepts them.
  void enqueue_word(isa::Word word);

  /// Queue a whole program.
  void enqueue(const isa::Program& program);

  /// Link words queued but not yet accepted by the link.
  std::size_t tx_pending() const { return tx_words_.size(); }
  bool tx_drained() const { return tx_words_.empty(); }

  // -- Receive side ----------------------------------------------------------
  /// Non-blocking: return the next response whose complete frame has
  /// arrived and verified (services the link first).
  std::optional<msg::Response> poll();

  // -- State machine ---------------------------------------------------------
  /// One non-blocking quantum: discard stale state if the system was reset,
  /// push queued tx words while the link has space, move every arrived
  /// upstream word into the deframing window.  Once per cycle: a repeat in
  /// the same cycle only pushes words enqueued since the last service.
  void service() {
    if (tx_fresh_ || stale()) {
      service_link();
    }
  }

  /// Drop any partially deframed link words and any queued unsent words,
  /// restarting framing from the next word to arrive.  Wired to system
  /// reset and call watchdogs; harmless at any frame boundary.
  void reset();

  /// Total responses received so far.
  std::uint64_t responses_received() const { return responses_received_; }

  /// Host-side framing statistics (host.crc_resyncs).
  const sim::Counters& counters() const { return stats_; }

  top::System& system() { return *system_; }
  const top::System& system() const { return *system_; }

 private:
  /// True when the clock moved (or the system was reset) since the last
  /// service: only then can new upstream words or downstream space exist.
  bool stale() const {
    const sim::Simulator& sim = system_->simulator();
    return sim.cycle() != serviced_cycle_ ||
           sim.reset_generation() != reset_generation_;
  }
  void service_link();
  /// Discard stale framing state if the system was reset since last use.
  void sync_reset();

  top::System* system_;
  CompactingQueue<msg::LinkWord> tx_words_;  ///< queued, not yet on the link
  CompactingQueue<msg::LinkWord> rx_words_;  ///< deframing window
  std::uint64_t reset_generation_;
  /// Cycle of the last service (kNever after a reset: service again).
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t serviced_cycle_ = kNever;
  bool tx_fresh_ = false;  ///< words enqueued since the last service
  std::uint64_t responses_received_ = 0;
  sim::Counters stats_;
  sim::Counters::Handle crc_resyncs_;
};

/// The one owner of clock advancement in the host layer.
///
/// Every blocking host-side loop is the same shape: service the driver,
/// check a completion predicate, check the watchdog, step the clock.  The
/// Pump is that shape, written once — Coprocessor, ReliableTransport and
/// Farm never touch `Simulator::step`/`run_until` directly, so "who
/// advances time" has exactly one answer and exactly one deadline policy.
class Pump {
 public:
  Pump(sim::Simulator& sim, Driver& driver) : sim_(&sim), driver_(&driver) {}

  /// Service the driver and evaluate `done`; while false, step the clock,
  /// enforcing `deadline` before every step (diagnostics name `what`).
  /// Returns the number of cycles consumed.  `done` may throw; the clock
  /// stops where it was.  The predicate is a template parameter, so a
  /// capturing lambda is called directly instead of through a heap-held
  /// std::function.
  template <typename Done>
  std::uint64_t run_until(Done&& done, Deadline deadline,
                          std::string_view what) {
    std::uint64_t cycles = 0;
    for (;;) {
      driver_->service();
      if (done()) {
        return cycles;
      }
      deadline.observe();
      deadline.enforce(what);
      sim_->step();
      ++cycles;
    }
  }

  /// Block until the driver's transmit queue has fully drained into the
  /// link (the bounded-buffer backpressure path).
  void flush(Deadline deadline, std::string_view what) {
    run_until([this] { return driver_->tx_drained(); }, deadline, what);
  }

  sim::Simulator& simulator() { return *sim_; }
  Driver& driver() { return *driver_; }

 private:
  sim::Simulator* sim_;
  Driver* driver_;
};

}  // namespace fpgafu::host

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

#include "isa/program.hpp"
#include "msg/response.hpp"
#include "sim/counters.hpp"
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

  /// A deadline that never expires, for a loop whose caller owns the
  /// timeout (a Farm shard's step: each job carries its own watchdog).
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
/// *advancing simulated time*: `enqueue` puts words on the link at once, as
/// far as it accepts them, and keeps the rest (a bounded downlink's
/// backpressure) in a transmit queue; `service()` is its single
/// non-blocking quantum — retry queued words while the downstream buffer
/// has space, drain arrived upstream words into the CRC-checked response
/// deframing window.  Callers that need to block (Coprocessor's
/// conveniences, ReliableTransport, Farm shards) pair a Driver with a
/// Pump; callers integrating into their own event loop call
/// `service()`/`poll()` directly and step the clock themselves.
///
/// The link is serviced only when it could have something for the host.
/// `due()` names that cycle: now while words wait to be sent or after a
/// reset; otherwise the cycle the deframing window could first hold a
/// whole response frame (fewer words cannot deframe), or, on a bounded
/// uplink, every arrival, because each word the host takes frees a slot
/// the serialiser may wait for.  A Pump services the driver at that cycle
/// and skips it in between.  Words reach the host's receive side, and
/// downstream buffer space frees, only on a clock edge, so service() does
/// its work once per cycle and a repeat in the same cycle returns at once.
/// poll() services the same way, so a caller polling in a loop touches the
/// link once and then drains frames already in the deframing window.
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
  /// Send a run of 64-bit stream words (2 link words each).  Never blocks:
  /// words go onto the link at once while it accepts them, and the rest
  /// wait in the transmit queue for later service() quanta.
  void enqueue(std::span<const isa::Word> words);

  /// Send a whole program.
  void enqueue(const isa::Program& program) { enqueue(program.words()); }

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
  /// upstream word into the deframing window.  A repeat in the same cycle
  /// does nothing.
  void service() {
    if (stale()) {
      service_link();
    }
  }

  /// The earliest cycle at which service() could move a word or let poll()
  /// return a response (see the class comment); at or before the current
  /// cycle when that is the next cycle, UINT64_MAX when only a later clock
  /// edge can create such work.
  std::uint64_t due() const;

  /// The cycle the last upstream word now on its way reaches the host, so
  /// the link can drain (UINT64_MAX when none is): the host-side event a
  /// predicate reading System::idle() waits for besides the clock edges.
  std::uint64_t drained_at() const {
    const msg::Link& link = system_->link();
    return link.host_arrival(link.up_pending());
  }

  /// Drop any partially deframed link words, restarting framing from the
  /// next word to arrive.  Queued words still go out: dropping them could
  /// cut an instruction in two and leave the decoder's sequence counter
  /// behind the transport's mirror of it.  Wired to call watchdogs;
  /// harmless at any frame boundary.
  void realign() { rx_words_.clear(); }

  /// realign(), and drop the queued unsent words too (what a system reset
  /// under the driver does by itself).
  void reset() {
    realign();
    tx_words_.clear();
  }

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
  /// Sync with a reset, send queued words while the link accepts them,
  /// and drain every arrived upstream word.
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
  std::uint64_t responses_received_ = 0;
  sim::Counters stats_;
  sim::Counters::Handle crc_resyncs_;
};

/// What a Pump predicate returns: that it is done, or the host-side event
/// it next needs to run at.  The driver's own events (a whole response
/// frame can be deframed, queued words can move) always wake a pump, so a
/// predicate only names what the driver cannot know.
class Wake {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// The condition holds: stop pumping.
  static constexpr Wake done() { return Wake(kNever, false, true); }
  /// Run again at the first wake at or after `cycle` (a host-side alarm:
  /// a retry deadline, the end of a load).  A cycle not after the current
  /// one means the next cycle.
  static constexpr Wake at(std::uint64_t cycle) {
    return Wake(cycle, false, false);
  }
  /// Run again only on the driver's events (a predicate that only polls
  /// responses or waits for the transmit queue).
  static constexpr Wake on_link() { return at(kNever); }
  /// Run again after the next cycle the kernel executes, or when the last
  /// upstream word on its way reaches the host: for predicates that read
  /// simulator state (System::idle(), a drain's progress), which changes
  /// only on an executed clock edge or when the host takes words off the
  /// link.
  static constexpr Wake on_step() { return Wake(kNever, true, false); }

  bool is_done() const { return done_; }
  std::uint64_t cycle() const { return at_; }
  bool after_step() const { return step_; }

 private:
  constexpr Wake(std::uint64_t at, bool step, bool done)
      : at_(at), step_(step), done_(done) {}

  std::uint64_t at_;
  bool step_;
  bool done_;
};

/// The one owner of clock advancement in the host layer.
///
/// Every blocking host-side loop is the same shape: service the driver,
/// run a predicate, check the watchdog, advance the clock.  The Pump is
/// that shape, written once — Coprocessor, ReliableTransport, Farm and
/// FuManager never touch `Simulator::step`/`run_until` directly, so "who
/// advances time" has exactly one answer and exactly one deadline policy.
///
/// Simulated time moves from event to event.  Between two runs of the
/// host side the clock advances by Simulator::advance, which executes only
/// cycles in which the kernel has something scheduled and skips the quiet
/// ones, until the earliest of: the predicate's Wake, the driver's due(),
/// the deadline's expiry (never skipped: it throws at exactly its cycle)
/// and kMaxQuiet cycles.  Every host action that can change what the
/// hardware does happens at one of those cycles, so each count is the same
/// as with a host that looks every cycle.
class Pump {
 public:
  /// The longest stretch of simulated time between two runs of the host
  /// side.  Work queued by other threads (a Farm shard's queue) is seen at
  /// the next run, which this bounds; it is a property of the loop, not a
  /// setting: anything cycle-exact has its own wake.
  static constexpr std::uint64_t kMaxQuiet = 64;

  Pump(sim::Simulator& sim, Driver& driver) : sim_(&sim), driver_(&driver) {}

  /// Service the driver and run `poll`; until it returns Wake::done(),
  /// advance the clock to the next host-side event, enforcing `deadline`
  /// before every advance (diagnostics name `what`).  Returns the number
  /// of cycles consumed.  `poll` may throw; the clock stops where it was.
  /// The predicate is a template parameter, so a capturing lambda is
  /// called directly instead of through a heap-held std::function.
  template <typename Poll>
  std::uint64_t run_until(Poll&& poll, Deadline deadline,
                          std::string_view what) {
    std::uint64_t cycles = 0;
    for (;;) {
      driver_->service();
      const Wake wake = poll();
      if (wake.is_done()) {
        return cycles;
      }
      deadline.observe();
      deadline.enforce(what);
      cycles += advance(wake, deadline);
    }
  }

  sim::Simulator& simulator() { return *sim_; }
  Driver& driver() { return *driver_; }

 private:
  /// Advance the clock to the next cycle the host side must run at (see
  /// the class comment); returns the cycles advanced.
  std::uint64_t advance(const Wake& wake, const Deadline& deadline);

  sim::Simulator* sim_;
  Driver* driver_;
};

}  // namespace fpgafu::host

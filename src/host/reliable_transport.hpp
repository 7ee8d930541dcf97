#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/framing.hpp"
#include "sim/counters.hpp"
#include "util/ring_buffer.hpp"

namespace fpgafu::host {

/// Tuning knobs for ReliableTransport.
struct TransportConfig {
  /// Programs the pipelined interface keeps in flight at once, one window
  /// slot each.  1 is call-and-wait; larger windows overlap one program's
  /// tail with the next program's issue (the RTM pipelines instructions
  /// and answers in order, so the wire protocol needs no changes).
  /// submit() refuses to exceed the window; host::Farm sizes its shard
  /// step from it.
  std::size_t window = 1;

  /// Throw SimError on nonsensical settings (a zero window, or one near
  /// the sequence space).  ReliableTransport and host::Farm
  /// run this on construction so misconfiguration surfaces on the
  /// caller's thread.
  void validate() const;
};

/// The tail probe's schedule: the wait after the `n`-th probe sent since
/// the front entry last moved (n = 0: the wait before the first), i.e.
/// `first * 2^n`, saturating at UINT64_MAX instead of overflowing.  `first`
/// is PTO, or the host-side estimate before the first latency sample.
/// Exposed so tests can pin it.
std::uint64_t probe_interval(std::uint64_t first, unsigned n);

/// Reliable request/response layer over an unreliable upstream link.
///
/// Wraps a Coprocessor and recovers from lost, corrupted and duplicated
/// *response* frames (the CRC-checked deframer in Coprocessor::poll turns
/// corruption into loss; this layer turns loss into retries).  Loss on the
/// downstream path is out of scope: instruction words carry no check codes,
/// so a dropped downstream word shifts the 64-bit stream pairing for the
/// rest of the run and no host-side protocol can detect it (docs/PROTOCOL.md
/// discusses the limitation).
///
/// Mechanics (see docs/PROTOCOL.md for the full state machine):
///  * the program is split into instruction groups; each group's response
///    count is predicted host-side (host::predict), and the wire sequence
///    number the decoder will assign is mirrored in next_wire_seq_;
///  * response-producing groups enter an outstanding FIFO; because the RTM
///    answers in issue order, a response matching a *later* entry proves
///    every earlier entry's remaining responses were lost — they are
///    re-submitted under fresh sequence numbers (gap detection);
///  * within a GETV burst the `burst` index spots duplicated sub-responses
///    (dropped) and intra-burst gaps.  A gap is re-read at once, as its own
///    entry (`GETV src1+next, burst-next` under a fresh sequence number),
///    while the attempt that skipped it stays live and keeps the rest of
///    its burst; a retried entry re-reads only its remaining range.  So
///    each lost sub-response costs one re-read of itself (selective
///    acknowledgment, RFC 2018).  A range whose base register does not fit
///    isa::RegNum falls back to re-sending the whole group;
///  * a lost response with nothing behind it (a *tail loss*) is caught by a
///    tail probe, after RACK-TLP (RFC 8985): when the front entry has made
///    no progress for PTO = max(2*SRTT, SRTT + max(8, 4*RTTVAR)) cycles —
///    an RFC 6298 estimate of the response latency, sampled (Karn's rule)
///    only on the first response of never-re-sent groups — the transport
///    sends one SYNC word.  (The 2*SRTT term is RACK-TLP's own PTO; it
///    absorbs a step in latency, such as a longer PUTV queued ahead of a
///    read, that the variance term has not learnt yet.)  The SYNC's
///    value-independent response queues behind every earlier response (a
///    slow unit delays it too), so when it lands, every entry older than
///    it is re-submitted as a gap retry.  At most one probe is
///    outstanding; a lost probe is re-sent at doubling intervals
///    (probe_interval) for as long as the front makes no progress
///    (transport.probes).  The probe is the only loss detector: it needs
///    no bound on how long a unit may take, so a slow unit costs O(log)
///    probe words and no retry.  A link that answers nothing at all gives
///    up on the per-program watchdog; `kMaxAttempts` bounds consecutive
///    re-sends of one entry that delivered nothing;
///  * groups that produce no responses (register writes) are submitted only
///    once no outstanding read covers a register they write (per-register
///    write barrier, host::GroupPrediction), so re-submitting a read can never
///    observe a newer write.  The barrier spans *programs*: a later
///    program's groups never overtake an earlier program's unsubmitted
///    write;
///  * each response lands in its program-order slot and is re-numbered to
///    its *program-order* sequence number as it lands, so a program's
///    result is bit-comparable with host::ReferenceModel::run on the same
///    program.
///
/// Two interfaces share that state machine, and each program has exactly
/// one result, its Completion (call() returns its responses).
///  * `call()` — submit one program and block until it completes
///    (call-and-wait, the historical interface);
///  * the *pipelined window* — `submit()` up to `config().window` programs,
///    drive `service()` from a pump loop, and consume each program's
///    Completion via `poll_completed()`.  Programs issue strictly in
///    submission order; a program completes once all its groups are on the
///    wire and its last response lands, so one program's round-trip tail
///    overlaps the next program's issue.  A retry give-up or a per-program
///    watchdog expiry aborts the *whole* window (the recovery reset
///    destroys the machine state every in-flight program depends on):
///    service() throws and the caller is expected to abort_in_flight() and
///    re-submit or fail upwards (host::Farm fails the window as shard
///    casualties).
///
/// One program, one flight: each submit() occupies one window slot with
/// one watchdog and one FrameLayout (docs/PROTOCOL.md, "One program, one
/// flight").  Retired flights are recycled with their storage, so once warm
/// a submit() allocates nothing but the Completion's response vector.
///
/// The transport mirrors the decoder's sequence counter, so it must be the
/// only submitter on its system (construct it before any traffic and route
/// everything through it).  A system reset re-synchronises both counters.
class ReliableTransport {
 public:
  /// Ticket for one pipelined program; unique per transport.
  using ProgramId = std::uint64_t;

  /// A completed pipelined program: every response, renumbered to program
  /// order (bit-comparable with host::ReferenceModel::run).
  struct Completion {
    ProgramId id = 0;
    std::vector<msg::Response> responses;
  };

  /// A program's watchdog when submit()/call() is given no budget: twice a
  /// plain call's, since the transport is expected to out-wait retries a
  /// plain call would not.
  static constexpr std::uint64_t kDefaultBudgetCycles =
      2 * kDefaultCallBudgetCycles;

  /// Consecutive submissions of one outstanding entry that delivered
  /// nothing before giving up (the first send and its re-sends), sized
  /// for the 5 % upstream fault rates the soak and fuzz tests inject.
  static constexpr unsigned kMaxAttempts = 25;

  explicit ReliableTransport(Coprocessor& copro, TransportConfig config = {});

  /// Submit `program` and block until every expected response has been
  /// received (retrying as needed) and the system has drained.  Returns
  /// responses renumbered to program order.  Throws SimError when an entry
  /// exhausts kMaxAttempts or the overall watchdog fires; one pump loop
  /// under one Deadline covers the sends, the exchange and the drain.
  /// `budget_cycles`, when given, overrides kDefaultBudgetCycles for this
  /// one call (the Farm uses it for per-job deadlines).  Requires an empty
  /// window (call-and-wait and pipelined submission do not mix within one
  /// exchange).
  std::vector<msg::Response> call(
      const isa::Program& program,
      std::optional<std::uint64_t> budget_cycles = std::nullopt);

  // -- Pipelined window ------------------------------------------------------
  /// Enqueue a program into the in-flight window (throws SimError when the
  /// window is full — poll capacity with window_full()).  Its instructions
  /// issue, in submission order, as service() runs; its per-program
  /// watchdog (`budget_cycles`, default kDefaultBudgetCycles) arms when its
  /// first group reaches the wire.
  ProgramId submit(const isa::Program& program,
                   std::optional<std::uint64_t> budget_cycles = std::nullopt);

  /// One service quantum of the retry state machine: issue groups (window
  /// order, write barrier permitting), consume arrived responses, run gap
  /// retries and tail probes, surface completions.  Never advances the
  /// clock — drive it from a Pump loop.  The words it sends go onto the
  /// link in this call as far as the link accepts them; a bounded
  /// downlink's refusals wait in the Driver and wake the pump.  Throws
  /// SimError on a retry give-up or a per-program watchdog expiry; the
  /// window is then poisoned and must be cleared with abort_in_flight().
  void service();

  /// When service() next has work that no link event announces (the
  /// host's next-event contract, docs/PROTOCOL.md): the next cycle while
  /// completions or a completion scan are pending, or while a program
  /// waiting to issue may get further (it was just submitted, or an
  /// outstanding read retired or was re-sent since the write barrier held
  /// it); otherwise the earlier of the tail probe and the per-program
  /// watchdogs.  Response frames wake the pump
  /// by themselves.
  Wake next_wake() const;

  /// Programs in the window.
  std::size_t in_flight() const { return window_.size(); }
  bool window_full() const { return window_.size() >= config_.window; }

  /// Next completed program, if any (completion order).
  std::optional<Completion> poll_completed();

  /// Drop every in-flight program and pending completion, and realign the
  /// driver.  The recovery path after service() threw — in-flight results
  /// are unrecoverable (the reset destroyed the machine state behind them);
  /// the caller owns failing them upwards.
  void abort_in_flight();

  /// transport.{retries,gap_retries,dup_dropped,stale_dropped,failures,
  /// probes} statistics.
  const sim::Counters& counters() const { return stats_; }

  const TransportConfig& config() const { return config_; }
  Coprocessor& coprocessor() { return *copro_; }

 private:
  /// Per-group progress; the group itself, its prediction and its register
  /// footprint live in the flight's FrameLayout at the same index.
  struct GroupSlot {
    std::size_t first_response = 0;  ///< this group's range in Flight::got
    std::size_t received = 0;        ///< responses landed so far
  };

  /// One program in the window: one watchdog, one window slot.  Flights
  /// are recycled (spare_), so their vectors keep their capacity — all but
  /// `got`, which leaves as the Completion's response vector.
  struct Flight {
    ProgramId id = 0;
    FrameLayout layout;
    std::vector<GroupSlot> slots;
    /// Every group's predicted responses, side by side in program order
    /// (GroupSlot ranges), each renumbered as it lands.
    std::vector<msg::Response> got;
    std::size_t missing = 0;     ///< predicted responses not landed yet
    std::size_t next_group = 0;  ///< next group to put on the wire
    std::uint64_t budget = 0;
    std::optional<Deadline> deadline;  ///< armed at first transmission
  };

  /// Response-producing attempts in flight, oldest first (wire order).
  /// Each was sent for a range [lo, hi) of its group's sub-responses and
  /// still waits for [next, hi) of it.  One group's entries cover disjoint
  /// ranges (a GETV's holes and retried remainders are entries of their
  /// own), so every sub-response lands once and GroupSlot::received counts.
  struct Outstanding {
    ProgramId program = 0;
    std::size_t slot = 0;
    std::uint16_t wire_seq = 0;
    unsigned attempts = 0;
    /// The group index of this attempt's `burst` 0: `lo` for a GETV range
    /// re-read (it numbers its bursts from 0), 0 when the whole group went.
    std::size_t base = 0;
    std::size_t next = 0;  ///< next sub-response this attempt should carry
    std::size_t hi = 0;    ///< end of its range
    std::uint64_t sent = 0;  ///< transmit cycle (latency sample origin)
  };

  Flight* flight(ProgramId id);
  /// Re-sync the mirrored sequence counter after a system reset.
  void sync_generation();
  /// Would issuing `writer` now let a retry of any outstanding read observe
  /// a newer register value?  (The per-register write barrier.)
  bool write_conflicts(const GroupPrediction& writer) const;
  /// Send the part of a group that yields sub-responses [lo, hi) (all of
  /// it on first issue) and, when it responds, enqueue it for tracking.
  void transmit(Flight& f, std::size_t slot_index, std::size_t lo,
                std::size_t hi, unsigned attempts);
  /// (Re-)arm the tail-probe timer for the front outstanding entry.  On an
  /// empty FIFO, abandons any live probe.
  void arm_front();
  /// Fold one response-latency sample into the RFC 6298 estimate.
  void sample_latency(std::uint64_t cycles);
  /// The tail probe's floor on the variance term of its timeout.
  static constexpr std::uint64_t kProbeFloor = 8;
  /// Probe timeout: max(2*SRTT, SRTT + max(kProbeFloor, 4*RTTVAR)).
  std::uint64_t pto() const {
    return std::max(srtt8_ / 4, srtt8_ / 8 + std::max(kProbeFloor, rttvar4_));
  }
  /// Restart the probe timer: a response from no later than the front
  /// entry arrived, so the front cannot be overdue yet.
  void defer_probe();
  /// Send a SYNC tail probe (superseding a live one) and arm the re-probe.
  void send_probe();
  /// Re-read `o`'s sub-responses [o.next, hi) as a new entry at the FIFO
  /// tail, or give up (throw) once `o` used its kMaxAttempts.
  void resend(const Outstanding& o, std::size_t hi,
              sim::Counters::Handle reason);
  /// Drop the front outstanding entry and re-read what it still misses.
  void retry_front(sim::Counters::Handle reason);
  void handle_response(const msg::Response& r);
  /// The strict-order submission phase: put groups on the wire in window
  /// order, write barrier permitting.  Maintains unissued_.
  void issue_pending();
  /// Check every armed per-program watchdog (throws on expiry) and cache
  /// the earliest cycle one could next fire in watchdog_due_.
  void check_watchdogs();
  /// Turn every flight whose groups are all on the wire and whose responses
  /// have all landed into a Completion, in window order.
  void emit_ready();

  Coprocessor* copro_;
  TransportConfig config_;
  std::uint16_t next_wire_seq_ = 0;  ///< mirrors the decoder's seq counter
  std::uint64_t reset_generation_;
  ProgramId next_program_id_ = 1;
  std::vector<Flight> window_;  ///< submission order
  std::vector<Flight> spare_;   ///< retired flights, storage kept
  CompactingQueue<Outstanding> outstanding_;
  CompactingQueue<Completion> completed_;
  // service() can run on any cycle, so its quiet-cycle cost must stay O(1)
  // in the window depth (a deep window would otherwise pay for its own
  // bookkeeping faster than the pipelining saves wire time).  These caches
  // skip the O(window) phases until an event re-arms them.
  bool unissued_ = false;       ///< some flight has groups not yet issued
  /// An issue attempt may get further than the last one: a program was
  /// submitted, or an outstanding entry left the FIFO, so a write held at
  /// the barrier may pass (a new entry only adds reads to conflict with).
  bool try_issue_ = false;
  bool emit_pending_ = false;   ///< a flight may complete: run emit_ready()
  std::uint64_t watchdog_due_ = 0;  ///< earliest watchdog expiry (0 = dirty)
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  // Response latency, RFC 6298, in cycles and scaled (8*SRTT, 4*RTTVAR) so
  // the integer updates keep their fractions.  srtt8_ == 0: no sample yet;
  // the probe is timed from a host-side estimate instead (arm_front).
  std::uint64_t srtt8_ = 0;
  std::uint64_t rttvar4_ = 0;
  // The tail probe: at most one live, matched by its wire sequence number.
  bool probe_live_ = false;
  std::uint16_t probe_seq_ = 0;
  unsigned probes_sent_ = 0;          ///< since the front entry last moved
  /// The front entry's first probe wait (PTO, or the host-side estimate
  /// before the first sample); each re-probe doubles it (probe_interval).
  std::uint64_t probe_wait_ = 0;
  std::uint64_t probe_due_ = kNever;  ///< next probe cycle
  sim::Counters stats_;
  sim::Counters::Handle retries_;
  sim::Counters::Handle gap_retries_;
  sim::Counters::Handle dup_dropped_;
  sim::Counters::Handle stale_dropped_;
  sim::Counters::Handle failures_;
  sim::Counters::Handle probes_;
};

}  // namespace fpgafu::host

#include "host/reliable_transport.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "isa/rtm_ops.hpp"
#include "util/error.hpp"

namespace fpgafu::host {

void TransportConfig::validate() const {
  check(window > 0, "TransportConfig::window must be > 0");
  // Outstanding groups are matched by 16-bit wire sequence number; a window
  // anywhere near the sequence space would make matches ambiguous.
  check(window <= 4096, "TransportConfig::window must be <= 4096");
}

std::uint64_t probe_interval(std::uint64_t first, unsigned n) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return n >= 64 || first > (kMax >> n) ? kMax : first << n;
}

ReliableTransport::ReliableTransport(Coprocessor& copro,
                                     TransportConfig config)
    : copro_(&copro),
      config_(config),
      reset_generation_(copro.system().simulator().reset_generation()),
      retries_(stats_.handle("transport.retries")),
      gap_retries_(stats_.handle("transport.gap_retries")),
      dup_dropped_(stats_.handle("transport.dup_dropped")),
      stale_dropped_(stats_.handle("transport.stale_dropped")),
      failures_(stats_.handle("transport.failures")),
      probes_(stats_.handle("transport.probes")) {
  config_.validate();
}

ReliableTransport::Flight* ReliableTransport::flight(ProgramId id) {
  for (Flight& f : window_) {
    if (f.id == id) {
      return &f;
    }
  }
  return nullptr;
}

void ReliableTransport::sync_generation() {
  const std::uint64_t gen = copro_->system().simulator().reset_generation();
  if (gen != reset_generation_) {
    reset_generation_ = gen;
    next_wire_seq_ = 0;  // the decoder's counter restarted too
    probe_live_ = false;
  }
}

ReliableTransport::ProgramId ReliableTransport::submit(
    const isa::Program& program, std::optional<std::uint64_t> budget_cycles) {
  if (window_full()) {
    throw SimError("ReliableTransport::submit: window is full (" +
                   std::to_string(config_.window) + " programs in flight)");
  }
  if (window_.empty() && outstanding_.empty()) {
    // A new exchange may follow an external reset; re-mirror the decoder.
    sync_generation();
  }
  Flight f;
  if (!spare_.empty()) {
    f = std::move(spare_.back());
    spare_.pop_back();
  }
  const rtm::Rtm& rtm = copro_->system().rtm();
  f.layout.assign(program, rtm.config(), rtm.table());
  f.slots.clear();
  std::size_t responses = 0;
  for (const GroupPrediction& pred : f.layout.predictions) {
    f.slots.push_back({responses, 0});
    responses += pred.count;
  }
  // One allocation per program: `got` is sized once, here, and leaves as
  // the Completion's response vector.
  f.got.assign(responses, msg::Response{});
  f.missing = responses;
  f.id = next_program_id_++;
  f.next_group = 0;
  f.budget = budget_cycles.value_or(kDefaultBudgetCycles);
  f.deadline.reset();
  // An empty program is complete at once; any other completes when its
  // last group goes out or its last response lands, which set the flag.
  if (f.slots.empty()) {
    emit_pending_ = true;
  }
  window_.push_back(std::move(f));
  unissued_ = true;
  try_issue_ = true;
  return window_.back().id;
}

void ReliableTransport::transmit(Flight& f, std::size_t slot_index,
                                 std::size_t lo, std::size_t hi,
                                 unsigned attempts) {
  const std::uint16_t wire = next_wire_seq_++;
  const InstructionGroup& g = f.layout.groups[slot_index];
  const std::size_t count = f.layout.predictions[slot_index].count;
  // A GETV re-reads only the sub-responses [lo, hi) it misses, as
  // `GETV src1+lo, hi-lo`: the group is read-only (the write barrier holds
  // back anything that could change what it reads), and its sub-reads are
  // the same registers under the same encoding, so they answer exactly as
  // the lost originals would have.  When the range's base register does
  // not fit the instruction field the whole group goes again, and the
  // sub-responses outside [lo, hi) come back as duplicates.
  std::size_t base = 0;
  if ((lo > 0 || hi < count) && g.inst.function == isa::fc::kRtm &&
      g.inst.variety == static_cast<isa::VarietyCode>(isa::RtmOp::kGetVec) &&
      g.inst.src1 + lo <= std::numeric_limits<isa::RegNum>::max()) {
    isa::Instruction part = g.inst;
    part.src1 = static_cast<isa::RegNum>(g.inst.src1 + lo);
    part.aux = static_cast<std::uint8_t>(hi - lo);
    const isa::Word word = part.encode();
    copro_->driver().enqueue(std::span(&word, 1));
    base = lo;
  } else {
    copro_->driver().enqueue(
        std::span(f.layout.words).subspan(g.first_word, g.word_count));
  }
  if (count > 0) {
    const bool was_empty = outstanding_.empty();
    outstanding_.push_back({f.id, slot_index, wire, attempts, base, lo, hi,
                            copro_->system().simulator().cycle()});
    if (was_empty) {
      arm_front();
    }
  }
}

void ReliableTransport::arm_front() {
  probes_sent_ = 0;
  if (outstanding_.empty()) {
    // Nothing left for a probe to uncover: its late response is stale,
    // and a probe kept live could alias a later group's sequence number
    // once the 16-bit counter wraps.
    probe_live_ = false;
    probe_due_ = kNever;
    return;
  }
  const std::uint64_t now = copro_->system().simulator().cycle();
  if (srtt8_ != 0) {
    probe_wait_ = pto();
  } else {
    // No sample yet: estimate the front group's response latency from the
    // host's side of the link — both flight times, the words queued ahead
    // on the downlink (its own included) and its own response frames — and
    // time the probe as RFC 6298's first sample would, PTO = R + max(8,
    // 2R).  The estimate ignores slow units; a probe that fires early only
    // queues behind the slow response and retries nothing.
    const top::SystemConfig& cfg = copro_->system().config();
    const Outstanding& o = outstanding_.front();
    const Flight* f = flight(o.program);
    const std::uint64_t queued =
        copro_->system().link().down_pending() + copro_->driver().tx_pending();
    const std::uint64_t frames =
        f != nullptr ? f->layout.predictions[o.slot].count : 1;
    const std::uint64_t r =
        cfg.link_down.latency + cfg.link_up.latency +
        cfg.link_down.interval * queued +
        cfg.link_up.interval * msg::kLinkWordsPerResponse * frames;
    probe_wait_ = r + std::max(kProbeFloor, 2 * r);
  }
  probe_due_ = now + probe_wait_;
}

void ReliableTransport::sample_latency(std::uint64_t cycles) {
  const std::uint64_t r = std::max<std::uint64_t>(1, cycles);
  if (srtt8_ == 0) {
    srtt8_ = 8 * r;  // SRTT = R, RTTVAR = R/2
    rttvar4_ = 2 * r;
    return;
  }
  // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|;  SRTT = 7/8 SRTT + 1/8 R.
  const std::uint64_t err8 = srtt8_ > 8 * r ? srtt8_ - 8 * r : 8 * r - srtt8_;
  rttvar4_ = rttvar4_ - rttvar4_ / 4 + err8 / 8;
  srtt8_ = srtt8_ - srtt8_ / 8 + r;
}

void ReliableTransport::defer_probe() {
  if (srtt8_ != 0) {
    probe_due_ = copro_->system().simulator().cycle() + pto();
  }
}

void ReliableTransport::send_probe() {
  // A SYNC: no register traffic (empty register sets, so no barrier waits on
  // it) and exactly one value-independent response, issued behind every
  // group already sent.  Sending one abandons any earlier, overdue probe.
  isa::Instruction sync;
  sync.function = isa::fc::kRtm;
  sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  probe_seq_ = next_wire_seq_++;
  probe_live_ = true;
  const isa::Word word = sync.encode();
  copro_->driver().enqueue(std::span(&word, 1));
  stats_.bump(probes_);
  ++probes_sent_;
  // Re-probe at doubling intervals, starting from the front's first wait,
  // for as long as the front makes no progress: a slow unit is waited out
  // with O(log) probe words, and a dead link is left to the per-program
  // watchdog.
  const std::uint64_t now = copro_->system().simulator().cycle();
  probe_due_ = now + std::min(probe_interval(probe_wait_, probes_sent_),
                              kNever - now);
}

void ReliableTransport::resend(const Outstanding& o, std::size_t hi,
                               sim::Counters::Handle reason) {
  stats_.bump(reason);
  Flight* f = flight(o.program);
  check(f != nullptr, "ReliableTransport: outstanding entry for a program "
                      "that is no longer in flight");
  if (o.attempts >= kMaxAttempts) {
    stats_.bump(failures_);
    copro_->reset();
    throw SimError("ReliableTransport: program " + std::to_string(o.program) +
                   " group " + std::to_string(o.slot) + " exhausted " +
                   std::to_string(kMaxAttempts) + " attempts");
  }
  stats_.bump(retries_);
  transmit(*f, o.slot, o.next, hi, o.attempts + 1);
}

void ReliableTransport::retry_front(sim::Counters::Handle reason) {
  const Outstanding o = outstanding_.front();
  outstanding_.pop_front();
  try_issue_ = true;
  if (!outstanding_.empty()) {
    arm_front();  // the next entry moves up; else transmit arms the probe
  }
  resend(o, o.hi, reason);
}

void ReliableTransport::handle_response(const msg::Response& r) {
  if (probe_live_ && r.seq == probe_seq_) {
    // The RTM answers in issue order, so every group sent before the probe
    // has delivered all it ever will: what is still missing was lost.
    probe_live_ = false;
    while (!outstanding_.empty() &&
           static_cast<std::int16_t>(outstanding_.front().wire_seq -
                                     probe_seq_) < 0) {
      retry_front(gap_retries_);
    }
    return;
  }
  // Locate the outstanding entry this response belongs to.
  std::size_t match = outstanding_.size();
  for (std::size_t j = 0; j < outstanding_.size(); ++j) {
    if (outstanding_[j].wire_seq == r.seq) {
      match = j;
      break;
    }
  }
  if (match == outstanding_.size()) {
    // A duplicate of an already-completed entry, or a late response from a
    // re-sent attempt or an abandoned probe.  Either way the RTM is still
    // answering what was sent before the front entry, which therefore
    // cannot have answered yet.
    stats_.bump(stale_dropped_);
    if (!outstanding_.empty()) {
      defer_probe();
    }
    return;
  }
  // In-order delivery: a response for entry `match` proves entries before
  // it lost their remaining responses.  Retry them (they re-enter at the
  // tail under fresh sequence numbers).
  for (std::size_t j = 0; j < match; ++j) {
    retry_front(gap_retries_);
  }
  Outstanding& o = outstanding_.front();
  Flight* f = flight(o.program);
  check(f != nullptr, "ReliableTransport: response for a program that is no "
                      "longer in flight");
  GroupSlot& s = f->slots[o.slot];
  const std::size_t burst = o.base + r.burst;
  if (burst < o.next || burst >= o.hi) {
    // A duplicated sub-response, or (behind a whole-group re-send) one
    // that another entry covers or that already landed.  The front entry
    // is still answering, so what it misses may yet come.
    stats_.bump(dup_dropped_);
    defer_probe();
    return;
  }
  const std::size_t slot = o.slot;
  if (burst > o.next) {
    // Sub-responses [next, burst) went missing inside the burst.  Re-read
    // just those at once, as an entry of their own at the FIFO tail (its
    // fresh sequence number keeps its answers apart from the lost
    // originals), and keep this one live: the rest of its burst is still
    // on the way.
    const Outstanding hole = o;  // resend() may move the FIFO's storage
    resend(hole, burst, gap_retries_);
  } else if (s.received == 0 && o.attempts == 1) {
    // Karn's rule: only a never-re-sent group's first response measures
    // the latency unambiguously.  (A retry carries attempts > 1 until it
    // delivers, and later sub-responses trail the first by the burst's
    // frame spacing, not by the round trip.)
    sample_latency(copro_->system().simulator().cycle() - o.sent);
  }
  Outstanding& front = outstanding_.front();
  msg::Response& landed = f->got[s.first_response + burst];
  landed = r;
  // Renumber wire order back to program order: the reference model numbers
  // each group by its index in the program (mod 2^16).
  landed.seq = static_cast<std::uint16_t>(slot);
  landed.burst = static_cast<std::uint16_t>(burst);
  ++s.received;
  --f->missing;
  front.next = burst + 1;
  // Progress: the attempt counter tracks consecutive attempts that
  // delivered nothing, so a long burst is not charged for earlier losses
  // it has already recovered from.
  front.attempts = 1;
  if (front.next == front.hi) {
    outstanding_.pop_front();
    try_issue_ = true;
  }
  if (f->missing == 0) {
    emit_pending_ = true;
  }
  arm_front();
}

void ReliableTransport::emit_ready() {
  for (std::size_t fi = 0; fi < window_.size();) {
    Flight& f = window_[fi];
    // Done once every group reached the wire and every response landed.
    // (Write groups expect none, so the issue condition is the binding one
    // for pure-write programs.)
    if (f.missing == 0 && f.next_group == f.slots.size()) {
      completed_.push_back({f.id, std::move(f.got)});
      spare_.push_back(std::move(f));
      window_.erase(window_.begin() + static_cast<std::ptrdiff_t>(fi));
    } else {
      ++fi;
    }
  }
}

bool ReliableTransport::write_conflicts(const GroupPrediction& writer) const {
  for (const Outstanding& o : outstanding_) {
    const Flight* f = nullptr;
    for (const Flight& w : window_) {
      if (w.id == o.program) {
        f = &w;
        break;
      }
    }
    // An outstanding entry always belongs to a live flight; be conservative
    // if that invariant were ever violated.
    if (f == nullptr ||
        writer.writes_conflict_with_reads_of(f->layout.predictions[o.slot])) {
      return true;
    }
  }
  return false;
}

void ReliableTransport::issue_pending() {
  sim::Simulator& sim = copro_->system().simulator();
  // Groups issue in strict submission order — the first flight with
  // unissued groups is the only one allowed to transmit, so a later
  // program can never overtake an earlier one on the wire.  Groups that
  // mutate state additionally wait behind the per-register write barrier:
  // a write may overtake outstanding reads whose footprints it cannot
  // touch (host::GroupPrediction), so register-disjoint programs pipeline
  // instead of paying one round trip each, and no retry can ever observe
  // a newer value.
  try_issue_ = false;
  bool stalled = false;
  for (Flight& f : window_) {
    const std::size_t groups = f.layout.groups.size();
    while (f.next_group < groups) {
      const GroupPrediction& pred = f.layout.predictions[f.next_group];
      if (pred.count == 0 && write_conflicts(pred)) {
        break;  // write barrier
      }
      if (!f.deadline) {
        // The per-program watchdog arms when the program reaches the wire.
        f.deadline.emplace(sim, f.budget);
        watchdog_due_ = 0;
      }
      transmit(f, f.next_group, 0, pred.count, 1);
      ++f.next_group;
      // A flight whose last group needs no response may be complete now;
      // any other completes when a response lands.
      if (f.next_group == groups && pred.count == 0) {
        emit_pending_ = true;
      }
    }
    if (f.next_group < groups) {
      stalled = true;
      break;  // stalled on the barrier; later programs must wait behind it
    }
  }
  unissued_ = stalled;
}

void ReliableTransport::check_watchdogs() {
  const std::uint64_t now = copro_->system().simulator().cycle();
  std::uint64_t due = kNever;
  for (Flight& f : window_) {
    if (!f.deadline) {
      continue;
    }
    f.deadline->observe();
    if (f.deadline->expired()) {
      copro_->reset();
      throw SimError("ReliableTransport: program " + std::to_string(f.id) +
                     " watchdog expired after " + std::to_string(f.budget) +
                     " cycles");
    }
    due = std::min(due, now + f.deadline->remaining());
  }
  // 0 marks the cache dirty; a flight that arms later (on its first
  // transmit) dirties it again.
  watchdog_due_ = due;
}

void ReliableTransport::service() {
  sim::Simulator& sim = copro_->system().simulator();

  // A group held at the write barrier stays held until an outstanding
  // read leaves the FIFO, so the issue scan runs only after that (or a
  // submit) happened.
  if (unissued_ && try_issue_) {
    issue_pending();
  }

  while (auto r = copro_->poll()) {
    handle_response(*r);
  }

  // The tail probe, at the cached cycle (kNever while nothing waits).
  if (sim.cycle() >= probe_due_) {
    send_probe();
  }

  // Per-program watchdogs, checked lazily at the cached earliest-expiry
  // cycle.  Deadline::spent() reads the live cycle counter, so a lazy
  // check loses no precision; rewinds cannot happen while flights are in
  // the window (every reset path poisons the window first).
  if (!window_.empty() && (watchdog_due_ == 0 || sim.cycle() >= watchdog_due_)) {
    check_watchdogs();
  }

  if (emit_pending_) {
    emit_pending_ = false;
    emit_ready();
  }
}

Wake ReliableTransport::next_wake() const {
  if (!completed_.empty() || emit_pending_ ||
      (unissued_ && try_issue_)) {
    return Wake::at(copro_->system().simulator().cycle());
  }
  std::uint64_t at = probe_due_;
  if (!window_.empty()) {
    at = std::min(at, watchdog_due_);  // 0 (dirty): the next cycle
  }
  return Wake::at(at);
}

std::optional<ReliableTransport::Completion>
ReliableTransport::poll_completed() {
  if (completed_.empty()) {
    return std::nullopt;
  }
  Completion c = std::move(completed_.front());
  completed_.pop_front();
  return c;
}

void ReliableTransport::abort_in_flight() {
  for (Flight& f : window_) {
    spare_.push_back(std::move(f));
  }
  window_.clear();
  outstanding_.clear();
  completed_.clear();
  unissued_ = false;
  try_issue_ = false;
  emit_pending_ = false;
  watchdog_due_ = 0;
  probe_live_ = false;
  probe_due_ = kNever;
  copro_->reset();
}

std::vector<msg::Response> ReliableTransport::call(
    const isa::Program& program, std::optional<std::uint64_t> budget_cycles) {
  check(window_.empty(),
        "ReliableTransport::call with pipelined programs in flight");
  const std::uint64_t budget = budget_cycles.value_or(kDefaultBudgetCycles);
  submit(program, budget);
  sim::Simulator& sim = copro_->system().simulator();
  std::optional<Completion> done;
  try {
    copro_->pump().run_until(
        [&] {
          if (!done) {
            service();
            if (auto c = poll_completed()) {
              done = std::move(*c);
            } else {
              return next_wake();
            }
          }
          // Then let trailing writes and stale duplicates drain so the
          // system is idle for the caller (any response arriving now
          // belongs to no live group).
          while (copro_->poll()) {
            stats_.bump(stale_dropped_);
          }
          return copro_->system().idle() ? Wake::done() : Wake::on_step();
        },
        Deadline(sim, budget), "ReliableTransport::call");
  } catch (const SimError&) {
    // Watchdog (or retry give-up) aborted mid-exchange or
    // mid-drain; drop the poisoned window and realign the deframer so the
    // next call starts clean.
    abort_in_flight();
    throw;
  }
  return std::move(done->responses);
}

}  // namespace fpgafu::host

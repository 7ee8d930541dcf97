#include "host/reliable_transport.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace fpgafu::host {

void TransportConfig::validate() const {
  check(response_timeout > 0, "TransportConfig::response_timeout must be > 0");
  check(max_attempts > 0, "TransportConfig::max_attempts must be > 0");
  check(backoff_multiplier > 0,
        "TransportConfig::backoff_multiplier must be > 0");
  check(max_backoff_factor > 0,
        "TransportConfig::max_backoff_factor must be > 0");
  check(window > 0, "TransportConfig::window must be > 0");
  // Outstanding groups are matched by 16-bit wire sequence number; a window
  // anywhere near the sequence space would make matches ambiguous.
  check(window <= 4096, "TransportConfig::window must be <= 4096");
}

std::uint64_t backoff_timeout(const TransportConfig& config,
                              unsigned attempts) {
  std::uint64_t factor = 1;
  for (unsigned a = 1; a < attempts; ++a) {
    factor *= config.backoff_multiplier;
    if (factor >= config.max_backoff_factor) {
      factor = config.max_backoff_factor;
      break;
    }
  }
  return config.response_timeout * factor;
}

ReliableTransport::ReliableTransport(Coprocessor& copro,
                                     TransportConfig config)
    : copro_(&copro),
      config_(config),
      reset_generation_(copro.system().simulator().reset_generation()),
      retries_(stats_.handle("transport.retries")),
      timeouts_(stats_.handle("transport.timeouts")),
      gap_retries_(stats_.handle("transport.gap_retries")),
      dup_dropped_(stats_.handle("transport.dup_dropped")),
      stale_dropped_(stats_.handle("transport.stale_dropped")),
      failures_(stats_.handle("transport.failures")) {
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
  }
}

ReliableTransport::ProgramId ReliableTransport::submit(
    const isa::Program& program, std::optional<std::uint64_t> budget_cycles,
    bool stream) {
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
  f.got.clear();
  for (std::size_t i = 0; i < f.layout.groups.size(); ++i) {
    const ResponsePrediction& pred = f.layout.predictions[i];
    GroupSlot s;
    s.program_seq = static_cast<std::uint16_t>(i);
    s.first_response = f.got.size();
    s.done = pred.count == 0;
    f.slots.push_back(s);
    f.got.resize(f.got.size() + pred.count);
  }
  f.id = next_program_id_++;
  f.out.clear();
  f.out.reserve(f.got.size());
  f.stream = stream;
  f.next_group = 0;
  f.emit_cursor = 0;
  f.budget = budget_cycles.value_or(config_.max_cycles);
  f.deadline.reset();
  window_.push_back(std::move(f));
  unissued_ = true;
  emit_pending_ = true;  // a pure-write program may already be complete
  return window_.back().id;
}

void ReliableTransport::transmit(Flight& f, std::size_t slot_index,
                                 unsigned attempts) {
  const std::uint16_t wire = next_wire_seq_++;
  const InstructionGroup& g = f.layout.groups[slot_index];
  copro_->submit(
      std::span(f.layout.words).subspan(g.first_word, g.word_count));
  if (f.layout.predictions[slot_index].count > 0) {
    // Partial burst progress is kept across retries: the group is
    // read-only (the write barrier holds back anything that could change
    // what it reads), so the re-sent sub-responses it already has are
    // byte-identical duplicates and the missing tail extends its range.
    const bool was_empty = outstanding_.empty();
    outstanding_.push_back({f.id, slot_index, wire, attempts, 0});
    if (was_empty) {
      arm_front();
    }
  }
}

void ReliableTransport::arm_front() {
  if (outstanding_.empty()) {
    return;
  }
  Outstanding& o = outstanding_.front();
  std::uint64_t t = backoff_timeout(config_, o.attempts);
  // Clamp to the owning program's remaining watchdog budget: a backed-off
  // retry chain must keep probing inside the budget, never out-wait it.
  if (const Flight* f = flight(o.program); f && f->deadline) {
    t = std::max<std::uint64_t>(1, std::min(t, f->deadline->remaining()));
  }
  o.deadline = copro_->system().simulator().cycle() + t;
}

void ReliableTransport::retry_front(sim::Counters::Handle reason) {
  const Outstanding o = outstanding_.front();
  outstanding_.pop_front();
  arm_front();
  stats_.bump(reason);
  Flight* f = flight(o.program);
  check(f != nullptr, "ReliableTransport: outstanding entry for a program "
                      "that is no longer in flight");
  GroupSlot& s = f->slots[o.slot];
  if (!f->layout.predictions[o.slot].retriable) {
    // Cannot safely re-submit: report the loss as a transport error in
    // the group's program-order position.
    stats_.bump(failures_);
    msg::Response r;
    r.type = msg::Response::Type::kError;
    r.code = static_cast<std::uint8_t>(msg::ErrorCode::kTransport);
    r.seq = s.program_seq;
    f->got[s.first_response] = r;
    s.received = 1;
    s.done = true;
    emit_pending_ = true;
    return;
  }
  if (o.attempts >= config_.max_attempts) {
    stats_.bump(failures_);
    copro_->reset();
    throw SimError("ReliableTransport: program " + std::to_string(o.program) +
                   " group " + std::to_string(o.slot) + " exhausted " +
                   std::to_string(config_.max_attempts) + " attempts");
  }
  stats_.bump(retries_);
  transmit(*f, o.slot, o.attempts + 1);
}

void ReliableTransport::handle_response(const msg::Response& r) {
  // Locate the outstanding entry this response belongs to.
  std::size_t match = outstanding_.size();
  for (std::size_t j = 0; j < outstanding_.size(); ++j) {
    if (outstanding_[j].wire_seq == r.seq) {
      match = j;
      break;
    }
  }
  if (match == outstanding_.size()) {
    // A duplicate of an already-completed group or a late response from a
    // superseded attempt.
    stats_.bump(stale_dropped_);
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
  if (r.burst < s.received) {
    stats_.bump(dup_dropped_);  // duplicated sub-response within a burst
    return;
  }
  if (r.burst > s.received) {
    // A sub-response inside the burst went missing; re-read the whole
    // group (sub-responses share one sequence number, so a partial retry
    // could not be told apart from the lost originals).
    retry_front(gap_retries_);
    return;
  }
  f->got[s.first_response + s.received++] = r;
  if (s.received >= f->layout.predictions[o.slot].count) {
    s.done = true;
    emit_pending_ = true;
    outstanding_.pop_front();
    arm_front();
  } else {
    // Progress: the attempt counter tracks consecutive attempts that
    // delivered nothing, so a long burst is not charged for earlier
    // losses it has already recovered from.
    o.attempts = 1;
    arm_front();
  }
}

void ReliableTransport::emit_ready() {
  for (std::size_t fi = 0; fi < window_.size();) {
    Flight& f = window_[fi];
    while (f.emit_cursor < f.slots.size() && f.slots[f.emit_cursor].done) {
      const GroupSlot& s = f.slots[f.emit_cursor];
      for (std::size_t k = 0; k < s.received; ++k) {
        msg::Response r = f.got[s.first_response + k];
        r.seq = s.program_seq;  // renumber wire order back to program order
        if (f.stream) {
          stream_events_.push_back({f.id, r});
        }
        f.out.push_back(r);
      }
      ++f.emit_cursor;
    }
    // Done once every group reached the wire and every slot emitted.
    // (Write slots are born done, so the issue condition is the binding
    // one for pure-write programs.)
    const std::size_t groups = f.slots.size();
    if (f.emit_cursor == groups && f.next_group == groups) {
      completed_.push_back({f.id, std::move(f.out)});
      spare_.push_back(std::move(f));
      window_.erase(window_.begin() + static_cast<std::ptrdiff_t>(fi));
    } else {
      ++fi;
    }
  }
}

bool ReliableTransport::write_conflicts(const GroupEffects& writer) const {
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
        writer.writes_conflict_with_reads_of(f->layout.effects[o.slot])) {
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
  // touch (host::GroupEffects), so register-disjoint programs pipeline
  // instead of paying one round trip each, and no retry can ever observe
  // a newer value.
  bool stalled = false;
  for (Flight& f : window_) {
    const std::size_t groups = f.layout.groups.size();
    while (f.next_group < groups) {
      const ResponsePrediction& pred = f.layout.predictions[f.next_group];
      if (pred.count == 0 && !pred.retriable &&
          write_conflicts(f.layout.effects[f.next_group])) {
        break;  // write barrier
      }
      if (!f.deadline) {
        // The per-program watchdog arms when the program reaches the wire.
        f.deadline.emplace(sim, f.budget);
        watchdog_due_ = 0;
      }
      transmit(f, f.next_group, 1);
      ++f.next_group;
      emit_pending_ = true;  // a fully issued pure-write flight completes
    }
    if (f.next_group < groups) {
      stalled = true;
      break;  // stalled on the barrier; later programs must wait behind it
    }
  }
  unissued_ = stalled;
}

void ReliableTransport::check_watchdogs() {
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
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
  // 0 marks the cache dirty; an unarmed-only window re-checks next quantum
  // (transient: flights arm on their first transmit).
  watchdog_due_ = due == kNever ? 0 : due;
}

void ReliableTransport::service() {
  sim::Simulator& sim = copro_->system().simulator();

  if (unissued_) {
    issue_pending();
  }

  while (auto r = copro_->poll()) {
    handle_response(*r);
  }

  if (!outstanding_.empty() && sim.cycle() >= outstanding_.front().deadline) {
    retry_front(timeouts_);
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

std::optional<ReliableTransport::Completion>
ReliableTransport::poll_completed() {
  if (completed_.empty()) {
    return std::nullopt;
  }
  Completion c = std::move(completed_.front());
  completed_.pop_front();
  return c;
}

std::optional<ReliableTransport::StreamEvent> ReliableTransport::poll_stream() {
  if (stream_events_.empty()) {
    return std::nullopt;
  }
  StreamEvent e = stream_events_.front();
  stream_events_.pop_front();
  return e;
}

void ReliableTransport::abort_in_flight() {
  for (Flight& f : window_) {
    spare_.push_back(std::move(f));
  }
  window_.clear();
  outstanding_.clear();
  completed_.clear();
  stream_events_.clear();
  unissued_ = false;
  emit_pending_ = false;
  watchdog_due_ = 0;
  copro_->reset();
}

std::vector<msg::Response> ReliableTransport::call(
    const isa::Program& program, std::optional<std::uint64_t> budget_cycles) {
  check(window_.empty(),
        "ReliableTransport::call with pipelined programs in flight");
  const std::uint64_t budget = budget_cycles.value_or(config_.max_cycles);
  submit(program, budget);
  sim::Simulator& sim = copro_->system().simulator();
  Pump& pump = copro_->pump();
  std::optional<Completion> done;
  try {
    pump.run_until(
        [&] {
          service();
          if (auto c = poll_completed()) {
            done = std::move(*c);
          }
          return done.has_value();
        },
        Deadline(sim, budget), "ReliableTransport::call");
  } catch (const SimError&) {
    // Watchdog (or max-attempts give-up) aborted mid-exchange; drop the
    // poisoned window and realign the deframer so the next call starts
    // clean.
    abort_in_flight();
    throw;
  }

  // Let trailing writes and stale duplicates drain so the system is idle
  // for the caller (any response arriving now belongs to no live group).
  pump.run_until(
      [&] {
        while (copro_->poll()) {
          stats_.bump(stale_dropped_);
        }
        return copro_->system().idle();
      },
      Deadline(sim, budget), "ReliableTransport::drain");

  return std::move(done->responses);
}

}  // namespace fpgafu::host

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace fpgafu::sim {

/// Receives the value changes of a watched wire (see WireBase::watch).
class WireWatcher {
 public:
  /// The watched wire tagged `tag` changed value; the new value is already
  /// visible through `peek()`.
  virtual void wire_edge(std::uint32_t tag) = 0;

 protected:
  ~WireWatcher() = default;
};

/// Untyped part of a Wire: identity, the owning simulator, and the
/// sensitivity list — the set of components observed reading this wire from
/// their `eval()` (and, under the event kernel, from their `commit()`: a
/// commit-time read must re-arm the reader's commit when the wire changes).
///
/// The list is populated automatically: while a component's `eval()` runs,
/// every `Wire::get()` records that component as a reader.  Recording
/// happens on every pass (not just the first), so a component whose read set
/// is conditional subscribes to a wire the first time any of its evaluations
/// actually reads it.  Subscriptions are conservative and permanent: a stale
/// subscription costs at most a redundant re-evaluation, which is harmless
/// because `eval()` is idempotent for fixed inputs.  Components with reads
/// the tracker cannot see (e.g. data fetched through a non-Wire side
/// channel) can subscribe explicitly with `sensitive_to()`.
///
/// Recording is cheap per read: the simulator bumps a global epoch before
/// every recorded eval()/commit() invocation and the wire stamps it on first
/// read, so repeat reads within one invocation dedupe on a single integer
/// compare (plus a kept back-slot fast path).  Cross-invocation membership
/// scans the wire's own reader list, which on the modelled designs holds
/// one or two components — shorter than a hash probe.  The reader keeps
/// the reverse edge (`Component::subscribed_`) only so that destroying
/// either end can unlink the other.
class WireBase {
 public:
  WireBase(const WireBase&) = delete;
  WireBase& operator=(const WireBase&) = delete;

  /// Explicitly subscribe `component` for re-evaluation whenever this wire
  /// changes, as if it had been observed reading it.
  void sensitive_to(Component& component) { subscribe(&component); }

  /// Report every value change of this wire to `watcher` as
  /// `wire_edge(tag)`, so state derived from many wires can be kept by
  /// edges instead of re-read every pass.  At most one watcher per wire;
  /// pass nullptr to stop.
  void watch(WireWatcher* watcher, std::uint32_t tag = 0) {
    check(watcher == nullptr || watcher_ == nullptr,
          "wire already has a watcher");
    watcher_ = watcher;
    watch_tag_ = tag;
  }

 protected:
  explicit WireBase(Simulator& sim) : sim_(&sim) {}
  ~WireBase() { sim_->unregister_wire(*this); }

  /// Record the currently evaluating (or, under kEvent, committing)
  /// component as a reader.
  void on_read() const {
    Component* reader = sim_->recording_reader();
    if (reader == nullptr) {
      return;  // read from a test, host code, or an untracked commit()
    }
    // O(1) dedup: only one component runs per subscription epoch, so a
    // matching stamp means this exact read was already processed.
    if (last_sub_epoch_ == sim_->sub_epoch_) {
      return;
    }
    last_sub_epoch_ = sim_->sub_epoch_;
    // Fast path: the most recent subscriber reading again on a later pass.
    if (!readers_.empty() && readers_.back() == reader) {
      return;
    }
    const_cast<WireBase*>(this)->subscribe(reader);
  }

  /// The value changed: mark the pass dirty and queue/wake the readers.
  void on_change() {
    sim_->wire_changed(*this);
    if (watcher_ != nullptr) {
      watcher_->wire_edge(watch_tag_);
    }
  }

 private:
  friend class Simulator;

  void subscribe(Component* reader) {
    for (const Component* r : readers_) {
      if (r == reader) {
        return;
      }
    }
    readers_.push_back(reader);
    reader->subscribed_.push_back(this);
  }

  Simulator* sim_;
  std::vector<Component*> readers_;
  /// Last sub_epoch_ in which a read of this wire was recorded (see class
  /// comment); mutable because get() is logically const.
  mutable std::uint64_t last_sub_epoch_ = ~std::uint64_t{0};
  WireWatcher* watcher_ = nullptr;
  std::uint32_t watch_tag_ = 0;
};

/// A combinational signal (a VHDL wire / unregistered std_logic_vector).
///
/// Exactly one component should drive a Wire (from its `eval()`); any number
/// may read it.  Writes are change-detecting so the kernel's fixed-point
/// settling knows when the net has stabilised, and reads made from an
/// `eval()` are recorded on the sensitivity list (see WireBase).
template <typename T>
class Wire : public WireBase {
 public:
  explicit Wire(Simulator& sim, T initial = T{})
      : WireBase(sim), value_(std::move(initial)), reset_value_(value_) {}

  const T& get() const {
    on_read();
    return value_;
  }

  /// Read without recording a sensitivity — for monitors and assertions
  /// that must not schedule their host component.
  const T& peek() const { return value_; }

  void set(const T& v) {
    if (!(value_ == v)) {
      value_ = v;
      on_change();
    }
  }

  /// Restore the power-on value (drivers re-assert during the next settle).
  /// Routed through change detection so a reset mid-activity wakes the
  /// readers — the event kernel must never resume from a stale quiet set.
  void reset() {
    if (!(value_ == reset_value_)) {
      value_ = reset_value_;
      on_change();
    }
  }

 private:
  T value_;
  T reset_value_;
};

/// A register (flip-flop array).  `q()` is the visible value; `set_d()`
/// stages the next value and `tick()` commits it.  Components call `set_d`
/// and `tick` from their `commit()`; keeping the d/q split explicit makes
/// multi-read-modify-write commit code obviously order-safe.
///
/// A Reg that lives inside a Component must be *bound* to it with the
/// two-argument constructor: `tick()` then performs change detection and
/// reports a real q-value change as commit activity (`mark_active()`), which
/// is what lets the event kernel demote components whose registers went
/// quiet.  The unbound constructor remains for standalone use (tests,
/// host-side modelling) where no scheduling is involved.
template <typename T>
class Reg {
 public:
  explicit Reg(T initial = T{})
      : q_(initial), d_(initial), reset_value_(std::move(initial)) {}

  /// Bind to the owning component (see class comment).
  explicit Reg(Component& owner, T initial = T{})
      : q_(initial),
        d_(initial),
        reset_value_(std::move(initial)),
        owner_(&owner) {}

  const T& q() const { return q_; }
  void set_d(T v) { d_ = std::move(v); }

  void tick() {
    if (owner_ != nullptr && !(q_ == d_)) {
      owner_->mark_active();
    }
    q_ = d_;
  }

  void reset() {
    q_ = reset_value_;
    d_ = reset_value_;
  }

 private:
  T q_;
  T d_;
  T reset_value_;
  Component* owner_ = nullptr;
};

}  // namespace fpgafu::sim

#pragma once

#include <cstddef>
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
/// sensitivity list — the components observed reading this wire, kept as
/// two bitmaps over their dense registration indices (Component::order_):
///
///  * *eval-readers* read it from `eval()` (or subscribed explicitly with
///    `sensitive_to()`); a change wakes their eval and arms their commit;
///  * *commit-readers* read it only from `commit()` (event kernel only); a
///    change arms their commit and nothing else.  Sound because `eval()` is
///    a pure function of the wires it read and of registered state: a wire
///    it never read cannot change what it drives.
///
/// The bitmaps are populated automatically: while the event kernel runs a
/// component's `eval()` or `commit()`, every `Wire::get()` tests that
/// component's bit — one AND against the word the kernel prepared for the
/// running component — and only a missing bit takes the out-of-line path
/// that sets it.  Recording happens on every invocation (not just the
/// first), so a component whose read set is conditional subscribes the
/// first time any evaluation actually reads the wire.  Subscriptions are
/// conservative and permanent (an eval read upgrades a commit-only one): a
/// stale subscription costs at most a redundant re-evaluation, which is
/// harmless because `eval()` is idempotent for fixed inputs.  Components with
/// reads the tracker cannot see (e.g. data fetched through a non-Wire side
/// channel) subscribe explicitly with `sensitive_to()`.
///
/// The first bitmap word (components 0–63) lives inline, so a design of up
/// to 64 components allocates nothing per wire; further words are allocated
/// on the first read by a component past index 63.  The reader keeps the
/// reverse edge (`Component::subscribed_`) only so that destroying either
/// end can unlink the other, and so compaction can move its bits.
class WireBase {
 public:
  WireBase(const WireBase&) = delete;
  WireBase& operator=(const WireBase&) = delete;

  /// Explicitly subscribe `component` for re-evaluation whenever this wire
  /// changes, as if its eval() had been observed reading it.
  void sensitive_to(Component& component) { subscribe(component, false); }

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

  /// Record the component whose eval() (or, under kEvent, commit()) is
  /// running as a reader.  A commit read is already covered by an eval
  /// subscription; nothing is recorded while no component runs (tests, host
  /// code, the brute-force kernel), because the kernel's read bit is zero.
  void on_read() const {
    const Simulator& s = *sim_;
    const std::size_t w = s.read_word_;
    const ReaderWord* r = w == 0 ? &first_
                          : w <= more_.size() ? &more_[w - 1]
                                              : nullptr;
    if (r == nullptr ||
        (s.read_bit_ & ~(r->eval | (r->commit & s.read_commit_))) != 0) {
      const_cast<WireBase*>(this)->record_read();
    }
  }

  /// The value changed: mark the pass dirty and wake the readers.
  void on_change() {
    sim_->wire_changed(*this);
    if (watcher_ != nullptr) {
      watcher_->wire_edge(watch_tag_);
    }
  }

 private:
  friend class Simulator;

  /// Bitmap word `w` of the reader sets: bit b is component w * 64 + b.
  /// The two sets are disjoint — an eval-reader is never also listed as a
  /// commit-only reader.
  struct ReaderWord {
    std::uint64_t eval = 0;    ///< read from eval(): wake eval, arm commit
    std::uint64_t commit = 0;  ///< read only from commit(): arm commit
  };

  /// Slow path of on_read() (simulator.cpp): subscribe the running
  /// component with the kind the kernel is recording.
  void record_read();
  /// Add `reader` to the eval-readers, or (`commit_only`) to the
  /// commit-readers unless it is an eval-reader already.
  void subscribe(Component& reader, bool commit_only);
  /// Word `w` of the reader sets, growing the overflow words on demand.
  ReaderWord& word(std::size_t w) {
    if (w == 0) {
      return first_;
    }
    if (w > more_.size()) {
      more_.resize(w);
    }
    return more_[w - 1];
  }

  Simulator* sim_;
  ReaderWord first_;              ///< components 0–63
  std::vector<ReaderWord> more_;  ///< word w at more_[w - 1]
  WireWatcher* watcher_ = nullptr;
  std::uint32_t watch_tag_ = 0;
};

/// Wake the readers of a changed wire: eval-readers into both bitmaps,
/// commit-only readers into the commit bitmap alone.
inline void Simulator::wire_changed(const WireBase& wire) {
  changed_ = true;
  if (kernel_ != Kernel::kEvent) {
    return;
  }
  const WireBase::ReaderWord& first = wire.first_;
  if ((first.eval | first.commit) != 0) {
    eval_bits_[0] |= first.eval;
    commit_bits_[0] |= first.eval | first.commit;
  }
  for (std::size_t w = 0; w < wire.more_.size(); ++w) {
    eval_bits_[w + 1] |= wire.more_[w].eval;
    commit_bits_[w + 1] |= wire.more_[w].eval | wire.more_[w].commit;
  }
}

/// A combinational signal (a VHDL wire / unregistered std_logic_vector).
///
/// Exactly one component should drive a Wire (from its `eval()`); any number
/// may read it.  Writes are change-detecting so the kernel's fixed-point
/// settling knows when the net has stabilised, and reads made from an
/// `eval()` or `commit()` are recorded on the sensitivity list (see
/// WireBase).
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

}  // namespace fpgafu::sim

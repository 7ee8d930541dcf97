#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace fpgafu::sim {

/// Base class for every simulated hardware block.
///
/// A Component mirrors a VHDL entity: `eval()` models its combinational
/// processes and `commit()` its clocked processes.  Rules (enforced by
/// convention and by the kernel's fixed-point check):
///
///  * `eval()` must be a pure function of Wire values and the component's
///    registered (pre-commit) state — re-running it with unchanged inputs
///    must drive identical outputs.  Under the event kernel a wire sampled
///    only from `commit()` re-arms the commit, not the eval, when it
///    changes: `eval()` must not depend on it except by reading it.
///  * `commit()` may read Wires and its own state and may update its own
///    state; it must not read another component's members directly and must
///    not write Wires (drive outputs from `eval()` instead).
///  * `reset()` restores power-on state, like an asserted reset line.
///
/// The event kernel (`Simulator::Kernel::kEvent`) additionally relies on the
/// *activity contract* (docs/SIMULATOR.md): any state change a `commit()`
/// makes must be visible to the scheduler.  Clocked state is plain fields,
/// and every change a `commit()` makes to it — a register or FSM field, a
/// ring buffer, a counter bump — is announced with
/// `mark_active()`; a commit that changes nothing stays silent and lets the
/// component sleep.  Behaviour that changes with time alone (a countdown, a
/// word in flight) is announced once with `wake_at(cycle)`, not by staying
/// active every cycle until then.  Components whose behaviour depends on
/// something the tracker cannot see at all (free-running RNGs, per-cycle
/// monitors) opt out of demotion entirely with `make_always_active()`.
class Component {
 public:
  Component(Simulator& sim, std::string name)
      : sim_(sim), name_(std::move(name)) {
    sim_.add(*this);
  }
  virtual ~Component() { sim_.remove(*this); }
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  virtual void eval() {}
  virtual void commit() {}
  virtual void reset() {}

  const std::string& name() const { return name_; }
  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }

  /// Schedule this component for evaluation and arm its commit.  Call when
  /// state that `eval()`/`commit()` depends on changed through a non-Wire
  /// side channel (host code poking a queue, a shared table mutation, ...).
  /// Idempotent and cheap; safe to call at any time, from any phase.
  void wake() { sim_.wake(*this); }

  /// True if this component opted out of event-kernel demotion.
  bool always_active() const { return always_active_; }

 protected:
  /// Announce from `commit()` that clocked state changed (or that a clocked
  /// side effect — counter bump, buffer mutation — happened),
  /// so the event kernel keeps this component in next cycle's wake/commit
  /// sets.
  void mark_active() { sim_.wake(*this); }

  /// Announce from `commit()` (or host code between cycles) that this
  /// component's behaviour next changes at `cycle` through time alone, so
  /// the event kernel can let it sleep until then (Simulator::wake_at).
  void wake_at(std::uint64_t cycle) { sim_.wake_at(*this, cycle); }

  /// Opt out of event-kernel demotion: eval and commit every cycle.  For
  /// free-running components whose behaviour is a function of *time* or of
  /// per-cycle RNG draws rather than of wires + registered state (monitors,
  /// VCD probes, duty-cycle drivers).
  void make_always_active() {
    always_active_ = true;
    sim_.wake(*this);
  }

 private:
  friend class Simulator;
  friend class WireBase;

  Simulator& sim_;
  std::string name_;
  /// Exempt from event-kernel demotion (see make_always_active()).
  bool always_active_ = false;
  /// Dense registration index, assigned by Simulator::add(): this
  /// component's position in the simulator's component list and its bit
  /// in the event kernel's eval/commit bitmaps and in every wire's reader
  /// bitmaps.  Sweeps run in index order, so the event kernel's commit
  /// sequence is a subsequence of the brute-force kernel's
  /// registration-order sequence — any probe or monitor reading other
  /// components' clocked state mid-commit then observes identical values
  /// under every kernel.
  std::size_t order_ = 0;
  /// Cycle of this component's pending timed wake (Simulator::wake_at);
  /// UINT64_MAX when none is pending.
  std::uint64_t timer_at_ = ~std::uint64_t{0};
  /// Wires whose reader bitmaps hold this component's bit, each once: the
  /// list Simulator::remove() walks to clear a destroyed component's bits
  /// and compaction walks to move them (a destroyed wire is erased from
  /// it).  Membership and kind are decided on the wire's side
  /// (WireBase::subscribe).
  std::vector<WireBase*> subscribed_;
};

inline void Simulator::wake(Component& component) {
  const std::size_t i = component.order_;
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  eval_bits_[i >> 6] |= bit;
  commit_bits_[i >> 6] |= bit;
}

}  // namespace fpgafu::sim

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace fpgafu::sim {

class Component;
class WireBase;

/// Synchronous cycle-accurate simulation kernel.
///
/// The kernel stands in for the FPGA fabric: it advances a single global
/// clock, which matches the paper's system (the framework runs in one clock
/// domain; functional units *may* contain other domains internally, which in
/// this model is expressed as multi-cycle behaviour inside a component).
///
/// Each cycle is executed in two phases:
///   1. *Settle*: component `eval()` (combinational logic) runs until no
///      Wire changes value — a fixed-point evaluation that handles arbitrary
///      acyclic combinational topologies without a static schedule.  A
///      genuine combinational loop fails to converge and raises SimError,
///      the moral equivalent of the synthesis error it would produce in
///      VHDL.
///   2. *Commit*: component `commit()` (clocked logic) runs once per
///      committed component; commits read Wires and the component's own
///      pre-commit state only, so commit order is immaterial — all registers
///      update "simultaneously" exactly as flip-flops do on a clock edge.
///
/// Two settle/commit kernels implement the cycle (see `Kernel`):
///
///   * `kEvent` (default): activity tracking carried *across* the clock
///     edge.  Wire reads are recorded as sensitivities, split by where they
///     happen (see WireBase): a read from `eval()` makes the component an
///     eval-reader, a read made only from `commit()` a commit-reader.
///     Scheduling state is two bitmaps over the components' dense
///     registration indices: `eval_bits_` (to evaluate) and `commit_bits_`
///     (to commit).  `wake()` sets a component's bit in both — from a change
///     of a wire it eval-reads, an explicit `Component::wake()`, a commit
///     that reported activity, or a timed wake (`wake_at`) coming due; a
///     change of a wire it only commit-reads sets its commit bit alone.  A
///     settle is a series of sweeps over `eval_bits_` in registration order:
///     a component woken ahead of the cursor runs in the same sweep, one
///     woken at or behind it in the next, and the settle ends after a sweep
///     that leaves no bit set.  The commit phase runs the commit bits, again
///     in registration order, and each component is provisionally demoted:
///     its commit bit is set again only if its `commit()` reported activity
///     (`mark_active()`), a wire it was observed reading — in `eval()` *or*
///     `commit()` — changes, or it is woken.
///     Sound because `eval()` and `commit()` are pure functions of the wires
///     they read, registered state and time, and every time-driven change is
///     announced with `wake_at`: re-running either with none of them changed
///     is the identity.  Idle or waiting hardware costs zero host cycles.
///   * `kBruteForce`: the original kernel — every settle pass re-runs every
///     component until a pass changes nothing, and every commit runs every
///     cycle.  Kept as the reference implementation; differential tests pin
///     the event kernel to bit-identical architectural behaviour.
///
/// **Thread affinity.**  A Simulator — and everything built on it: every
/// Component, the whole top::System — belongs to exactly one thread, the
/// one that constructed it (or the last one `rebind_owner()` was called
/// from).  Nothing here is synchronised: wires, the scheduling bitmaps and
/// every component's registers are plain data, which is what makes the
/// settle loop fast.  Concurrency lives *above* the simulator — host::Farm
/// runs N Systems on N threads, one simulator per thread, and never shares
/// one.
/// `step()` asserts the rule in debug builds; the TSan CI job enforces it
/// for the multi-threaded code paths.
class Simulator {
 public:
  enum class Kernel {
    kBruteForce,  ///< evaluate every component every pass (reference)
    kEvent,       ///< cross-cycle eval/commit bitmaps: skip idle components
  };

  /// Every kernel, reference implementation first.  The single source of
  /// truth for "all kernels" loops — differential tests, the fuzzer and the
  /// bench iterate this.
  static constexpr std::array<Kernel, 2> kAllKernels = {
      Kernel::kBruteForce,
      Kernel::kEvent,
  };

  /// Canonical name of a kernel (`brute` | `event`).
  static const char* kernel_name(Kernel kernel);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Register a component under the next dense index.  The simulator does
  /// not own components; it must outlive them (Component's ctor/dtor
  /// register/unregister automatically).  Add components between cycles.
  void add(Component& component);
  /// Unregister a component: clear its scheduling bits, drop its timed
  /// wakes and unlink it from every wire.  Later components move down one
  /// index (their reader bits with them, each keeping its kind) at the start
  /// of the next step(), which then wakes everything, so indices never
  /// shift under a running sweep even when a commit destroys a component.
  void remove(Component& component);

  /// Assert reset on every component, rewind the cycle counter and drop all
  /// cross-cycle activity state (pending timed wakes included): after reset
  /// every component is woken and commit-armed, so the event kernel cannot
  /// start from a stale quiet set, and stray Wire writes between reset()
  /// and the first step() are folded into that everything-woken state.
  void reset();

  /// Advance one clock cycle (settle + commit).
  void step();

  /// Advance towards cycle `target`.  While nothing is scheduled — the
  /// event kernel's eval and commit bitmaps are empty and no timed wake is
  /// due — every cycle until the next timed wake is the identity, so the
  /// clock moves straight to the earlier of that wake and `target` (at
  /// least one cycle) without running a step.  Otherwise, and always under
  /// kBruteForce, one step() runs.  Returns true when a step ran.
  bool advance(std::uint64_t target);

  /// Advance `n` cycles.
  void run(std::uint64_t n);

  /// Step until `done()` returns true, at most `max_cycles` cycles.
  /// Returns the number of cycles consumed.  Throws SimError on timeout —
  /// this is the watchdog used to detect e.g. a functional unit that never
  /// acknowledges.
  std::uint64_t run_until(const std::function<bool()>& done,
                          std::uint64_t max_cycles);

  /// Cycles since construction or last reset().
  std::uint64_t cycle() const { return cycle_; }

  /// Incremented by every reset().  Host-side software (which holds state
  /// *outside* the component tree, e.g. partially deframed responses)
  /// compares this against a remembered value to notice that the hardware
  /// was reset underneath it.
  std::uint64_t reset_generation() const { return reset_generation_; }

  /// Select the settle kernel.  Call only at a cycle boundary (between
  /// steps).  Switching wakes every component so the event kernel never
  /// inherits a quiet set it did not build itself; the woken commits
  /// re-request the timed wakes they need.
  void set_kernel(Kernel kernel);
  Kernel kernel() const { return kernel_; }

  /// Largest number of settle iterations any cycle has needed so far.
  /// Exposed so tests can assert the model contains no pathological
  /// combinational chains (see DESIGN.md §6).
  unsigned max_settle_iterations() const { return max_settle_; }

  /// Upper bound on settle iterations before declaring a combinational loop.
  void set_settle_limit(unsigned limit) { settle_limit_ = limit; }

  /// Components awaiting another sweep of a running settle.  Zero at every
  /// cycle boundary and after reset() — between cycles the eval bits are
  /// the next cycle's wake set, not leftover settle work (tests assert
  /// this invariant).
  std::size_t pending_reevals() const {
    return settling_ ? count(eval_bits_) : 0;
  }

  /// Event-kernel introspection: components that will have commit() run
  /// next cycle (commit set).
  std::size_t commit_set_size() const { return count(commit_bits_); }

  /// The thread this simulator is affine to (see the class comment).
  std::thread::id owner_thread() const { return owner_; }

  /// Transfer ownership to the calling thread.  Legal only at a quiescent
  /// hand-off — the previous owner must have stopped touching the simulator
  /// (and everything built on it) before the new owner starts.
  void rebind_owner() { owner_ = std::this_thread::get_id(); }

  /// Total component eval() calls across all settle passes (all kernels).
  /// A scheduled kernel's win is visible as a lower count for the same
  /// cycle count; bench_sim_kernel reports the ratio.
  std::uint64_t evals_performed() const { return evals_; }

  /// Total component commit() calls (all kernels): the clock-side
  /// counterpart of evals_performed().
  std::uint64_t commits_performed() const { return commits_; }

  /// Cycles actually executed by step() (all kernels).  Cycles advance()
  /// skipped are counted in cycle() but not here, so the ratio to the
  /// cycle count is the share of simulated time the kernel had to run.
  std::uint64_t steps_performed() const { return steps_; }

  /// Called on any Wire value change; marks the settle pass dirty and,
  /// under kEvent, wakes the wire's eval-readers and arms the commits of
  /// all its readers.  Defined in signal.hpp.
  inline void wire_changed(const WireBase& wire);

  /// Schedule `component` for evaluation and arm its commit (see
  /// Component::wake()): two bit sets, defined in component.hpp.  During a
  /// settle the component joins the running fixed-point search; between
  /// cycles, or from a commit, it joins the next cycle's first sweep.
  inline void wake(Component& component);

  /// Wake `component` at the start of the first step whose cycle is at
  /// least `cycle` — for behaviour that changes with time rather than with
  /// wires or registered state (a countdown, a word in flight).  Call from
  /// commit() or between cycles.  A component holds at most one pending
  /// timed wake, the earliest requested: a later request made while an
  /// earlier one is pending is dropped, so the component's commit must
  /// re-request any later wake it still needs each time it runs.  A no-op
  /// under kBruteForce, which runs every component every cycle anyway.
  void wake_at(Component& component, std::uint64_t cycle);

 private:
  friend class Component;
  friend class WireBase;

  /// A pending timed wake (min-heap on `at`).
  struct Timer {
    std::uint64_t at;
    Component* component;
  };
  static bool later(const Timer& a, const Timer& b) { return a.at > b.at; }

  static std::size_t count(const std::vector<std::uint64_t>& bits);
  /// kEvent: nothing to evaluate or commit in the next step.
  bool quiet() const;

  void unregister_wire(WireBase& wire);
  void wake_all();
  void fire_timers();
  void compact();
  void settle_brute_force();
  void settle_event();
  void sweep();
  void commit_scheduled();
  void stop_recording();

  /// Registered components by dense index (Component::order_); nullptr
  /// marks a destroyed one, compacted away at the start of the next step.
  std::vector<Component*> components_;
  /// kEvent scheduling state, one bit per component index: evaluate in the
  /// running settle or the next cycle's first sweep / commit this cycle's
  /// commit phase or the next.  Never shorter than any wire's reader
  /// bitmaps (compaction keeps their length), so wire_changed() ORs words
  /// in without a bounds check.
  std::vector<std::uint64_t> eval_bits_;
  std::vector<std::uint64_t> commit_bits_;
  /// The commit bits being run, swapped out of commit_bits_ (all zero
  /// between commit phases).
  std::vector<std::uint64_t> commit_work_;
  std::vector<Timer> timers_;  ///< kEvent: pending timed wakes (min-heap)
  /// kEvent read recording (see WireBase::on_read): the component whose
  /// eval() or commit() is running, its bitmap word and bit, and ~0 while
  /// that is a commit() (an eval subscription covers a commit read) or 0
  /// while it is an eval().  read_bit_ is 0 whenever nothing is recorded —
  /// under kBruteForce, between phases and in host code.
  Component* reader_ = nullptr;
  std::size_t read_word_ = 0;
  std::uint64_t read_bit_ = 0;
  std::uint64_t read_commit_ = 0;
  std::thread::id owner_ = std::this_thread::get_id();
  std::uint64_t cycle_ = 0;
  std::uint64_t reset_generation_ = 0;
  std::uint64_t evals_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t steps_ = 0;
  bool changed_ = false;  ///< kBruteForce: a wire changed this pass
  bool settling_ = false;  ///< kEvent: inside a settle
  bool holes_ = false;     ///< components_ holds a nullptr to compact
  Kernel kernel_ = Kernel::kEvent;
  unsigned settle_limit_ = 64;
  unsigned max_settle_ = 0;
};

}  // namespace fpgafu::sim

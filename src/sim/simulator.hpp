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
///     edge.  Wire reads made during any `eval()` are recorded as
///     sensitivities.  The first settle pass evaluates only components in
///     the persistent wake set — woken by a Wire change during the previous
///     cycle or by an explicit `Component::wake()`; subsequent passes
///     re-evaluate only the components whose recorded input wires changed in
///     the pass before — a dirty work-queue, the same idea as an
///     event-driven HDL simulator's sensitivity lists.  The commit phase
///     runs only "clocked-active" components: a component whose last
///     `commit()` reported no activity (no bound-`Reg` change, no
///     `mark_active()`) is demoted from the commit set and re-promoted when
///     any wire it was observed reading — in `eval()` *or* `commit()` —
///     changes, or when it is woken.  Sound because `eval()` and `commit()`
///     are pure functions of wires + registered state: re-running either
///     with neither changed is the identity.  Idle hardware costs zero host
///     cycles.
///   * `kBruteForce`: the original kernel — every settle pass re-runs every
///     component until a pass changes nothing, and every commit runs every
///     cycle.  Kept as the reference implementation; differential tests pin
///     the event kernel to bit-identical architectural behaviour.
///
/// **Thread affinity.**  A Simulator — and everything built on it: every
/// Component, the whole top::System — belongs to exactly one thread, the
/// one that constructed it (or the last one `rebind_owner()` was called
/// from).  Nothing here is synchronised: wires, the dirty queue and every
/// component's registers are plain data, which is what makes the settle
/// loop fast.  Concurrency lives *above* the simulator — host::Farm runs N
/// Systems on N threads, one simulator per thread, and never shares one.
/// `step()` asserts the rule in debug builds; the TSan CI job enforces it
/// for the multi-threaded code paths.
class Simulator {
 public:
  enum class Kernel {
    kBruteForce,  ///< evaluate every component every pass (reference)
    kEvent,       ///< cross-cycle wake/commit sets: skip idle components
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

  /// Register a component.  The simulator does not own components; it must
  /// outlive them (Component's ctor/dtor register/unregister automatically).
  void add(Component& component);
  void remove(Component& component);

  /// Assert reset on every component, rewind the cycle counter and drop any
  /// pending dirty state (stray Wire writes between reset() and the first
  /// step() must not leak into the first settle pass).  All cross-cycle
  /// activity state is dropped too: after reset every component is woken and
  /// commit-armed, so the event kernel cannot start from a stale quiet set.
  void reset();

  /// Advance one clock cycle (settle + commit).
  void step();

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
  /// steps); the dirty queue of a half-settled cycle does not transfer.
  /// Switching wakes every component so the event kernel never inherits a
  /// quiet set it did not build itself.
  void set_kernel(Kernel kernel);
  Kernel kernel() const { return kernel_; }

  /// Largest number of settle iterations any cycle has needed so far.
  /// Exposed so tests can assert the model contains no pathological
  /// combinational chains (see DESIGN.md §6).
  unsigned max_settle_iterations() const { return max_settle_; }

  /// Upper bound on settle iterations before declaring a combinational loop.
  void set_settle_limit(unsigned limit) { settle_limit_ = limit; }

  /// Components currently queued for re-evaluation *within* a settle.  Zero
  /// at every cycle boundary and after reset() — tests assert this
  /// invariant.  (The event kernel's cross-cycle wake set is intentionally
  /// not included: a pending wake is normal between-cycle state.)
  std::size_t pending_reevals() const { return queue_.size(); }

  /// Event-kernel introspection: components in the cross-cycle wake set
  /// (will be evaluated on the next cycle's first settle pass) and in the
  /// commit set (will have commit() run next cycle).
  std::size_t wake_set_size() const { return wake_set_.size(); }
  std::size_t commit_set_size() const { return commit_set_.size(); }

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

  /// Called on any Wire value change; marks the settle pass dirty and,
  /// under kEvent, wakes the wire's recorded readers (re-arming their
  /// commits too).
  void wire_changed(WireBase& wire);

  /// Schedule `component` for evaluation and arm its commit (see
  /// Component::wake()).  During a settle this re-queues it into the current
  /// fixed-point search; between cycles it joins the next cycle's wake set.
  void wake(Component& component);

 private:
  friend class Component;
  friend class WireBase;

  void unregister_wire(WireBase& wire);
  void enqueue(Component& component);
  void clear_queue();
  void arm_commit(Component& component);
  void wake_all();
  void run_eval(Component& component);
  void settle_brute_force();
  void settle_event();
  void commit_scheduled();

  /// The component whose reads should currently be recorded as
  /// subscriptions: the eval() being settled, or — under kEvent only — the
  /// commit() being run (commit-time reads must re-arm commits).
  Component* recording_reader() const {
    return reading_ != nullptr ? reading_ : committing_;
  }

  std::vector<Component*> components_;
  std::vector<Component*> queue_;  ///< components to re-evaluate next pass
  std::vector<Component*> work_;   ///< pass currently being drained
  std::vector<Component*> wake_set_;     ///< kEvent: eval next cycle
  std::vector<Component*> commit_set_;   ///< kEvent: commit next cycle
  std::vector<Component*> commit_work_;  ///< scheduled commits being run
  Component* reading_ = nullptr;    ///< component whose eval() is running
  Component* committing_ = nullptr;  ///< kEvent: component whose commit() runs
  std::thread::id owner_ = std::this_thread::get_id();
  std::uint64_t cycle_ = 0;
  std::uint64_t next_order_ = 0;  ///< registration ordinals for Components
  std::uint64_t reset_generation_ = 0;
  std::uint64_t evals_ = 0;
  /// Bumped before every recorded eval()/commit() invocation; wires stamp it
  /// on first read so repeat reads in the same invocation are O(1) no-ops.
  std::uint64_t sub_epoch_ = 0;
  bool changed_ = false;  ///< kBruteForce: a wire changed this pass
  bool settling_ = false;     ///< inside a settle (wake() targets this cycle)
  Kernel kernel_ = Kernel::kEvent;
  unsigned settle_limit_ = 64;
  unsigned max_settle_ = 0;
};

}  // namespace fpgafu::sim

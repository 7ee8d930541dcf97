#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/component.hpp"
#include "sim/signal.hpp"

namespace fpgafu::sim {

const char* Simulator::kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kBruteForce: return "brute";
    case Kernel::kEvent: return "event";
  }
  return "?";
}

void Simulator::add(Component& component) {
  component.order_ = next_order_++;
  components_.push_back(&component);
  // A freshly constructed component has never run: wake it and arm its
  // commit so the event kernel evaluates and commits it at least once.
  wake(component);
}

void Simulator::remove(Component& component) {
  components_.erase(
      std::remove(components_.begin(), components_.end(), &component),
      components_.end());
  // The component may sit in the dirty queue, the cross-cycle wake/commit
  // sets, and on the sensitivity lists of wires it does not own; purge all
  // so no dangling pointer survives it.  Its subscribed_ list names exactly
  // those wires (its own wires already unregistered in their destructors).
  queue_.erase(std::remove(queue_.begin(), queue_.end(), &component),
               queue_.end());
  wake_set_.erase(std::remove(wake_set_.begin(), wake_set_.end(), &component),
                  wake_set_.end());
  commit_set_.erase(
      std::remove(commit_set_.begin(), commit_set_.end(), &component),
      commit_set_.end());
  commit_work_.erase(
      std::remove(commit_work_.begin(), commit_work_.end(), &component),
      commit_work_.end());
  for (WireBase* w : component.subscribed_) {
    w->readers_.erase(
        std::remove(w->readers_.begin(), w->readers_.end(), &component),
        w->readers_.end());
  }
}

void Simulator::unregister_wire(WireBase& wire) {
  // Readers hold this wire in their subscription lists; drop it there too
  // so a later wire at the same address cannot alias a stale subscription.
  for (Component* reader : wire.readers_) {
    std::vector<WireBase*>& subs = reader->subscribed_;
    subs.erase(std::remove(subs.begin(), subs.end(), &wire), subs.end());
  }
}

void Simulator::enqueue(Component& component) {
  if (!component.queued_) {
    component.queued_ = true;
    queue_.push_back(&component);
  }
}

void Simulator::clear_queue() {
  for (Component* c : queue_) {
    c->queued_ = false;
  }
  queue_.clear();
}

void Simulator::arm_commit(Component& component) {
  if (!component.commit_armed_) {
    component.commit_armed_ = true;
    commit_set_.push_back(&component);
  }
}

void Simulator::wake(Component& component) {
  if (settling_) {
    // Mid-settle: fold the component into the current fixed-point search.
    enqueue(component);
  } else if (!component.woken_) {
    component.woken_ = true;
    wake_set_.push_back(&component);
  }
  arm_commit(component);
}

void Simulator::wake_all() {
  for (Component* c : components_) {
    wake(*c);
  }
}

void Simulator::wire_changed(WireBase& wire) {
  changed_ = true;
  if (kernel_ == Kernel::kEvent) {
    // Re-schedule the readers' evals (into the running settle if we are
    // inside one, next cycle's wake set otherwise) and re-promote their
    // commits: a recorded input changed, so a demoted commit may now act.
    for (Component* reader : wire.readers_) {
      wake(*reader);
    }
  }
}

void Simulator::set_kernel(Kernel kernel) {
  kernel_ = kernel;
  // The event kernel must never inherit a quiet set built by another kernel
  // (which does not maintain one): start from everything-active.
  wake_all();
}

void Simulator::reset() {
  for (Component* c : components_) {
    c->reset();
  }
  cycle_ = 0;
  ++reset_generation_;
  max_settle_ = 0;
  // Drop dirty state so a stray Wire::set between reset() and the first
  // step() cannot leak a stale queue entry into the first settle.
  clear_queue();
  // Drop all cross-cycle activity state and rebuild it as everything-active:
  // after a reset the event kernel must re-observe the whole design.
  wake_set_.clear();
  commit_set_.clear();
  for (Component* c : components_) {
    c->woken_ = false;
    c->commit_armed_ = false;
  }
  wake_all();
}

void Simulator::run_eval(Component& component) {
  reading_ = &component;
  ++sub_epoch_;
  component.eval();
  ++evals_;
}

void Simulator::settle_brute_force() {
  unsigned iterations = 0;
  do {
    changed_ = false;
    for (Component* c : components_) {
      c->eval();
      ++evals_;
    }
    ++iterations;
    if (iterations > settle_limit_) {
      throw SimError("combinational loop: signals did not settle within " +
                     std::to_string(settle_limit_) + " iterations");
    }
  } while (changed_);
  max_settle_ = std::max(max_settle_, iterations);
}

/// Event-driven settle: the first pass evaluates only the cross-cycle wake
/// set — components woken by a wire change since the previous settle, an
/// explicit wake(), a commit that reported activity, or reset()/add().
/// Every further pass drains only the components whose recorded input wires
/// changed in the pass before.  Sound by induction, extended across the
/// clock edge: a quiet component's eval() output can only change after one
/// of its recorded inputs changes or its own registered state changes
/// (which its previous commit reported as activity) — and each such event
/// wakes it.  Passes count like the brute-force kernel's, so settle_limit_
/// and max_settle_iterations() keep their meaning, and a combinational loop
/// keeps re-queueing its components until the limit trips.
void Simulator::settle_event() {
  clear_queue();
  settling_ = true;
  work_.clear();
  work_.swap(wake_set_);
  for (Component* c : work_) {
    c->woken_ = false;
  }
  unsigned iterations = 1;
  while (true) {
    for (Component* c : work_) {
      run_eval(*c);
    }
    reading_ = nullptr;
    if (queue_.empty()) {
      break;
    }
    if (++iterations > settle_limit_) {
      // Leave a recoverable scheduler state behind (everything woken), so
      // the caller may raise the limit and continue stepping.
      clear_queue();
      settling_ = false;
      wake_all();
      throw SimError("combinational loop: signals did not settle within " +
                     std::to_string(settle_limit_) + " iterations");
    }
    work_.clear();
    work_.swap(queue_);
    for (Component* c : work_) {
      c->queued_ = false;
    }
  }
  settling_ = false;
  max_settle_ = std::max(max_settle_, iterations);
}

void Simulator::step() {
  // Thread-affinity contract (see the class comment): only the owning
  // thread may advance the clock.  host::Farm satisfies this by
  // constructing each shard's System on its worker thread.
  assert(std::this_thread::get_id() == owner_ &&
         "sim::Simulator is thread-affine: step() called off the owner "
         "thread (construct the System on the thread that drives it, or "
         "rebind_owner() at a quiescent hand-off)");
  if (kernel_ == Kernel::kEvent) {
    settle_event();
    commit_scheduled();
  } else {
    settle_brute_force();
    for (Component* c : components_) {
      c->commit();
    }
  }
  ++cycle_;
}

/// Commit phase of the event kernel: run only armed commits.  Each
/// component is provisionally demoted; it stays in the (fresh) commit set
/// only if its commit reported activity (bound Reg change or mark_active(),
/// both of which wake()), a wire it read gets changed later, someone wakes
/// it, or it opted out of demotion.
/// Commit-time wire reads are recorded (recording_reader()) so conditional
/// commit read sets stay conservative, exactly like eval sensitivities.
void Simulator::commit_scheduled() {
  commit_work_.clear();
  commit_work_.swap(commit_set_);
  // Registration order, so the armed subsequence commits in exactly the
  // order the brute-force kernel would (skipped components are by
  // definition unchanged): probes reading non-wire state mid-commit see
  // kernel-independent values.
  std::sort(commit_work_.begin(), commit_work_.end(),
            [](const Component* a, const Component* b) {
              return a->order_ < b->order_;
            });
  for (std::size_t i = 0; i < commit_work_.size(); ++i) {
    Component* c = commit_work_[i];
    c->commit_armed_ = false;
    committing_ = c;
    ++sub_epoch_;
    try {
      c->commit();
    } catch (...) {
      // Leave a recoverable scheduler state behind, as a settle that trips
      // the combinational-loop limit does: the commits not yet run are in
      // no set, so disarm them and wake everything before rethrowing.
      committing_ = nullptr;
      for (std::size_t k = i + 1; k < commit_work_.size(); ++k) {
        commit_work_[k]->commit_armed_ = false;
      }
      wake_all();
      throw;
    }
    if (c->always_active_) {
      wake(*c);
    }
  }
  committing_ = nullptr;
}

void Simulator::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    step();
  }
}

std::uint64_t Simulator::run_until(const std::function<bool()>& done,
                                   std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (done()) {
      return i;
    }
    step();
  }
  if (done()) {
    return max_cycles;
  }
  throw SimError("watchdog: condition not reached within " +
                 std::to_string(max_cycles) + " cycles");
}

}  // namespace fpgafu::sim

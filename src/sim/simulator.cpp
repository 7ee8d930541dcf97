#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

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

std::size_t Simulator::count(const std::vector<std::uint64_t>& bits) {
  std::size_t n = 0;
  for (const std::uint64_t word : bits) {
    n += static_cast<std::size_t>(std::popcount(word));
  }
  return n;
}

bool Simulator::quiet() const {
  for (std::size_t w = 0; w < eval_bits_.size(); ++w) {
    if ((eval_bits_[w] | commit_bits_[w]) != 0) {
      return false;
    }
  }
  return true;
}

void WireBase::record_read() {
  subscribe(*sim_->reader_, sim_->read_commit_ != 0);
}

void WireBase::subscribe(Component& reader, bool commit_only) {
  const std::size_t i = reader.order_;
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  ReaderWord& r = word(i >> 6);
  if (((r.eval | r.commit) & bit) == 0) {
    reader.subscribed_.push_back(this);
  }
  if (!commit_only) {
    r.eval |= bit;
    r.commit &= ~bit;
  } else if ((r.eval & bit) == 0) {
    r.commit |= bit;
  }
}

void Simulator::add(Component& component) {
  component.order_ = components_.size();
  components_.push_back(&component);
  const std::size_t words = (components_.size() + 63) / 64;
  if (words > eval_bits_.size()) {
    eval_bits_.resize(words);
    commit_bits_.resize(words);
    commit_work_.resize(words);
  }
  // A freshly constructed component has never run: wake it and arm its
  // commit so the event kernel evaluates and commits it at least once.
  wake(component);
}

void Simulator::remove(Component& component) {
  // Clear the component's bits (commit_work_ too: it may be destroyed by a
  // commit that runs before its own) and leave a hole at its index, which
  // the next step() compacts away: indices never shift under a sweep.
  const std::size_t i = component.order_;
  const std::uint64_t keep = ~(std::uint64_t{1} << (i & 63));
  eval_bits_[i >> 6] &= keep;
  commit_bits_[i >> 6] &= keep;
  commit_work_[i >> 6] &= keep;
  components_[i] = nullptr;
  holes_ = true;
  std::erase_if(timers_,
                [&](const Timer& t) { return t.component == &component; });
  std::make_heap(timers_.begin(), timers_.end(), later);
  // Unlink it from the sensitivity lists of wires it does not own.  Its
  // subscribed_ list names exactly those wires (its own wires already
  // unregistered in their destructors).
  for (WireBase* w : component.subscribed_) {
    WireBase::ReaderWord& r = w->word(i >> 6);
    r.eval &= keep;
    r.commit &= keep;
  }
}

void Simulator::compact() {
  // Move the live components down over the holes, and each one's reader
  // bits with it, keeping their kind (an eval-reader stays one, a
  // commit-only reader stays commit-only).  Indices only move down, and
  // they are visited in ascending order, so a target bit is always free:
  // its old owner was destroyed (remove() cleared its bits) or has moved
  // down already.  Scheduling bits do not move: everything is woken
  // instead, which is always sound and costs one full sweep after a rare
  // event (components are destroyed at teardown or on an FU hot-swap).
  std::erase(components_, nullptr);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    Component& c = *components_[i];
    const std::size_t from = c.order_;
    if (from == i) {
      continue;
    }
    const std::uint64_t from_bit = std::uint64_t{1} << (from & 63);
    const std::uint64_t to_bit = std::uint64_t{1} << (i & 63);
    for (WireBase* w : c.subscribed_) {
      WireBase::ReaderWord& src = w->word(from >> 6);
      const bool eval = (src.eval & from_bit) != 0;
      src.eval &= ~from_bit;
      src.commit &= ~from_bit;
      WireBase::ReaderWord& dst = w->word(i >> 6);
      (eval ? dst.eval : dst.commit) |= to_bit;
    }
    c.order_ = i;
  }
  // The bitmaps keep their length: wires' reader words index them.
  std::fill(eval_bits_.begin(), eval_bits_.end(), 0);
  std::fill(commit_bits_.begin(), commit_bits_.end(), 0);
  std::fill(commit_work_.begin(), commit_work_.end(), 0);
  holes_ = false;
  wake_all();
}

void Simulator::unregister_wire(WireBase& wire) {
  // Readers hold this wire in their subscription lists; drop it there too
  // so a later wire at the same address cannot alias a stale subscription.
  const auto unlink = [&](std::size_t w, const WireBase::ReaderWord& r) {
    for (std::uint64_t bits = r.eval | r.commit; bits != 0; bits &= bits - 1) {
      const std::size_t i = (w << 6) | static_cast<std::size_t>(
                                           std::countr_zero(bits));
      std::erase(components_[i]->subscribed_, &wire);
    }
  };
  unlink(0, wire.first_);
  for (std::size_t w = 0; w < wire.more_.size(); ++w) {
    unlink(w + 1, wire.more_[w]);
  }
}

void Simulator::wake_all() {
  for (Component* c : components_) {
    if (c != nullptr) {
      wake(*c);
    }
  }
}

void Simulator::wake_at(Component& component, std::uint64_t cycle) {
  if (kernel_ != Kernel::kEvent || cycle >= component.timer_at_) {
    return;
  }
  // An earlier request supersedes a pending one: the superseded heap entry
  // no longer matches timer_at_ and is skipped when it comes due.
  component.timer_at_ = cycle;
  timers_.push_back({cycle, &component});
  std::push_heap(timers_.begin(), timers_.end(), later);
}

void Simulator::fire_timers() {
  while (!timers_.empty() && timers_.front().at <= cycle_) {
    const Timer t = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), later);
    timers_.pop_back();
    if (t.component->timer_at_ == t.at) {
      t.component->timer_at_ = ~std::uint64_t{0};
      wake(*t.component);
    }
  }
}

void Simulator::set_kernel(Kernel kernel) {
  kernel_ = kernel;
  // The event kernel must never inherit a quiet set built by another kernel
  // (which does not maintain one): start from everything-active.  A timer
  // left from an earlier event-kernel run can only wake a component early.
  wake_all();
}

void Simulator::reset() {
  for (Component* c : components_) {
    if (c != nullptr) {
      c->reset();
    }
  }
  cycle_ = 0;
  ++reset_generation_;
  max_settle_ = 0;
  // Drop all cross-cycle activity state and rebuild it as everything-active:
  // after a reset the event kernel must re-observe the whole design, and no
  // timed wake of the old timeline may fire in the new one.
  for (const Timer& t : timers_) {
    t.component->timer_at_ = ~std::uint64_t{0};
  }
  timers_.clear();
  wake_all();
}

void Simulator::stop_recording() {
  reader_ = nullptr;
  read_word_ = 0;
  read_bit_ = 0;
  read_commit_ = 0;
}

void Simulator::settle_brute_force() {
  unsigned iterations = 0;
  do {
    changed_ = false;
    for (Component* c : components_) {
      if (c != nullptr) {
        c->eval();
        ++evals_;
      }
    }
    ++iterations;
    if (iterations > settle_limit_) {
      throw SimError("combinational loop: signals did not settle within " +
                     std::to_string(settle_limit_) + " iterations");
    }
  } while (changed_);
  max_settle_ = std::max(max_settle_, iterations);
}

/// Event-driven settle: sweeps over the eval bits until one leaves none
/// set.  The first sweep starts from the cross-cycle wake set — components
/// woken by a wire change since the previous settle, an explicit wake(), a
/// commit that reported activity, a timed wake, or reset()/add().  Sound by
/// induction, extended across the clock edge: a quiet component's eval()
/// output can only change after one of its recorded inputs changes, its own
/// registered state changes (which its previous commit reported as
/// activity) or a time it announced comes due — and each such event wakes
/// it.  Sweeps count like the brute-force kernel's passes, so
/// settle_limit_ and max_settle_iterations() keep their meaning, and a
/// combinational loop keeps waking its components behind the cursor until
/// the limit trips.
void Simulator::settle_event() {
  settling_ = true;
  unsigned sweeps = 0;
  try {
    do {
      if (++sweeps > settle_limit_) {
        throw SimError("combinational loop: signals did not settle within " +
                       std::to_string(settle_limit_) + " iterations");
      }
      sweep();
    } while (count(eval_bits_) != 0);
  } catch (...) {
    // A loop that trips the limit or an eval() that throws leaves a
    // recoverable scheduler state behind: nothing mid-settle, everything
    // woken (the thrower included), so the caller may fix the cause and
    // keep stepping.
    stop_recording();
    settling_ = false;
    wake_all();
    throw;
  }
  settling_ = false;
  max_settle_ = std::max(max_settle_, sweeps);
}

/// One registration-order pass over the eval bits.  Each bit is cleared
/// before its eval() runs, so a component that wakes itself (or is woken
/// behind the cursor) waits for the next sweep, while one woken ahead of
/// the cursor runs in this one.  Reads are recorded as eval reads.
void Simulator::sweep() {
  read_commit_ = 0;
  for (std::size_t w = 0; w < eval_bits_.size(); ++w) {
    read_word_ = w;
    std::uint64_t ahead = ~std::uint64_t{0};
    while (const std::uint64_t bits = eval_bits_[w] & ahead) {
      const int b = std::countr_zero(bits);
      const std::uint64_t bit = std::uint64_t{1} << b;
      eval_bits_[w] &= ~bit;
      ahead = ~((bit << 1) - 1);
      reader_ = components_[(w << 6) | static_cast<std::size_t>(b)];
      read_bit_ = bit;
      reader_->eval();
      ++evals_;
    }
  }
  stop_recording();
}

void Simulator::step() {
  // Thread-affinity contract (see the class comment): only the owning
  // thread may advance the clock.  host::Farm satisfies this by
  // constructing each shard's System on its worker thread.
  assert(std::this_thread::get_id() == owner_ &&
         "sim::Simulator is thread-affine: step() called off the owner "
         "thread (construct the System on the thread that drives it, or "
         "rebind_owner() at a quiescent hand-off)");
  if (holes_) {
    compact();
  }
  if (kernel_ == Kernel::kEvent) {
    if (!timers_.empty() && timers_.front().at <= cycle_) {
      fire_timers();
    }
    settle_event();
    commit_scheduled();
  } else {
    settle_brute_force();
    for (Component* c : components_) {
      if (c != nullptr) {
        c->commit();
        ++commits_;
      }
    }
  }
  ++cycle_;
  ++steps_;
}

/// A step with empty bitmaps and no due timer runs no eval() and no
/// commit(): settle finds nothing to sweep and commit nothing to run.  Such
/// a cycle changes nothing but the cycle counter, and the next one starts
/// from the same empty state, until a timed wake comes due or host code
/// wakes something between cycles (which ends the skip: host code runs
/// only between advance() calls).  Moving the clock over such cycles is
/// therefore exact.
bool Simulator::advance(std::uint64_t target) {
  assert(std::this_thread::get_id() == owner_ &&
         "sim::Simulator is thread-affine: advance() called off the owner "
         "thread");
  if (kernel_ == Kernel::kEvent && !holes_ &&
      (timers_.empty() || timers_.front().at > cycle_) && quiet()) {
    std::uint64_t to = target;
    if (!timers_.empty()) {
      to = std::min(to, timers_.front().at);
    }
    cycle_ = std::max(to, cycle_ + 1);
    return false;
  }
  step();
  return true;
}

/// Commit phase of the event kernel: run the commit bits in registration
/// order.  Each component is provisionally demoted; it is committed again
/// next cycle only if its commit reported activity (mark_active(), which
/// wakes it), a wire it read gets changed later, someone wakes it, a timed
/// wake comes due, or it opted out of demotion.
/// Commit-time wire reads are recorded as commit reads, so a change of a
/// wire a component samples only at the clock edge re-arms its commit
/// without re-running its eval(); conditional commit read sets stay
/// conservative, exactly like eval sensitivities.
void Simulator::commit_scheduled() {
  // Wakes from here on arm next cycle's commits in the (all-zero) swapped
  // in bitmap.
  commit_work_.swap(commit_bits_);
  read_commit_ = ~std::uint64_t{0};
  for (std::size_t w = 0; w < commit_work_.size(); ++w) {
    read_word_ = w;
    // Re-read the word each time: a commit may destroy a later component,
    // which clears its bit here.
    while (const std::uint64_t bits = commit_work_[w]) {
      const int b = std::countr_zero(bits);
      commit_work_[w] &= bits - 1;
      Component* c = components_[(w << 6) | static_cast<std::size_t>(b)];
      reader_ = c;
      read_bit_ = std::uint64_t{1} << b;
      try {
        c->commit();
      } catch (...) {
        // Leave a recoverable scheduler state behind, as a settle that
        // trips the combinational-loop limit does: drop the commits not
        // yet run and wake everything before rethrowing.
        stop_recording();
        std::fill(commit_work_.begin(), commit_work_.end(), 0);
        wake_all();
        throw;
      }
      ++commits_;
      if (c->always_active_) {
        wake(*c);
      }
    }
  }
  stop_recording();
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

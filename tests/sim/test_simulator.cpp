#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/counters.hpp"
#include "sim/signal.hpp"
#include "support/reader_mesh.hpp"

namespace fpgafu::sim {
namespace {

/// A registered up-counter with a combinational "next" output.
class Counter : public Component {
 public:
  explicit Counter(Simulator& sim) : Component(sim, "counter"), next(sim) {}

  Wire<std::uint64_t> next;

  void eval() override { next.set(value_ + 1); }
  void commit() override {
    value_ = next.get();
    mark_active();
  }
  void reset() override { value_ = 0; }

  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A two-stage combinational chain: doubles the counter's next output.
class Doubler : public Component {
 public:
  Doubler(Simulator& sim, Wire<std::uint64_t>& input)
      : Component(sim, "doubler"), out(sim), in_(&input) {}

  Wire<std::uint64_t> out;

  void eval() override { out.set(in_->get() * 2); }

 private:
  Wire<std::uint64_t>* in_;
};

TEST(Simulator, CounterCounts) {
  Simulator sim;
  Counter c(sim);
  sim.run(5);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(Simulator, CombinationalChainSettlesRegardlessOfOrder) {
  // The doubler is registered after the counter but reads the counter's
  // combinational output; the fixed-point settle must propagate it within
  // the same cycle.
  Simulator sim;
  Counter c(sim);
  Doubler d(sim, c.next);
  sim.step();
  // After one cycle the counter committed 1; during that cycle next=1 so
  // the doubler output settled to 2.
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(d.out.get(), 2u);
  EXPECT_GE(sim.max_settle_iterations(), 1u);
}

TEST(Simulator, ResetRestoresPowerOnState) {
  Simulator sim;
  Counter c(sim);
  sim.run(7);
  sim.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(sim.cycle(), 0u);
  sim.run(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  Counter c(sim);
  const auto used = sim.run_until([&] { return c.value() >= 3; }, 100);
  EXPECT_EQ(used, 3u);
  EXPECT_EQ(c.value(), 3u);
}

TEST(Simulator, RunUntilWatchdogThrows) {
  Simulator sim;
  Counter c(sim);
  EXPECT_THROW(sim.run_until([] { return false; }, 10), SimError);
}

/// Two wires driven as a ring oscillator: a genuine combinational loop.
class Oscillator : public Component {
 public:
  explicit Oscillator(Simulator& sim)
      : Component(sim, "osc"), a(sim), b(sim) {}
  Wire<bool> a, b;
  void eval() override {
    a.set(!b.get());
    b.set(a.get());
  }
};

TEST(Simulator, CombinationalLoopDetected) {
  Simulator sim;
  Oscillator osc(sim);
  EXPECT_THROW(sim.step(), SimError);
}

TEST(Simulator, SettleLimitIsConfigurable) {
  // A long combinational chain (each stage reads the previous stage's
  // wire) needs one settle pass per stage in the worst registration order;
  // a tight limit must reject it, a generous one accept it.
  class Stage : public Component {
   public:
    Stage(Simulator& s, Wire<int>* input)
        : Component(s, "stage"), out(s), in_(input) {}
    Wire<int> out;
    void eval() override { out.set(in_ == nullptr ? 1 : in_->get() + 1); }
   private:
    Wire<int>* in_;
  };
  // Build the chain so evaluation order opposes data flow: later-registered
  // components feed earlier-registered ones is impossible with this ctor
  // order, so register stages in reverse via two simulators.
  Simulator strict;
  strict.set_settle_limit(2);
  std::vector<std::unique_ptr<Stage>> chain;
  Wire<int>* prev = nullptr;
  for (int i = 0; i < 8; ++i) {
    chain.push_back(std::make_unique<Stage>(strict, prev));
    prev = &chain.back()->out;
  }
  // Forward registration order settles in ~2 passes: fine even when strict.
  strict.step();
  EXPECT_EQ(chain.back()->out.get(), 8);
}

TEST(Simulator, ComponentUnregistersOnDestruction) {
  Simulator sim;
  {
    Counter c(sim);
    sim.step();
  }
  // Stepping after the component died must not touch freed memory.
  sim.step();
  EXPECT_EQ(sim.cycle(), 2u);

  // A reader destroyed mid-run must leave the sensitivity list of a wire it
  // does not own: changing that wire afterwards must not wake freed memory.
  Counter c(sim);
  auto reader = std::make_unique<Doubler>(sim, c.next);
  sim.run(2);
  EXPECT_EQ(reader->out.peek(), 2 * c.value());
  reader.reset();
  c.next.set(999);
  sim.run(2);
  EXPECT_EQ(sim.pending_reevals(), 0u);
  EXPECT_EQ(c.value(), 4u);
}

TEST(Simulator, WireChangeDetectionOnlyOnValueChange) {
  Simulator sim;
  // A component that drives a constant settles in exactly one iteration
  // (plus the iteration that observes no change).
  class Const : public Component {
   public:
    explicit Const(Simulator& s) : Component(s, "const"), out(s) {}
    Wire<int> out;
    void eval() override { out.set(42); }
  };
  Const k(sim);
  sim.step();
  sim.step();
  EXPECT_LE(sim.max_settle_iterations(), 2u);
}

/// Drives a constant: settles immediately, never needs re-evaluation.
class Quiet : public Component {
 public:
  explicit Quiet(Simulator& sim) : Component(sim, "quiet"), out(sim) {}
  Wire<int> out;
  void eval() override { out.set(7); }
};

TEST(Simulator, KernelFlagSelectsSettleStrategy) {
  Simulator sim;
  EXPECT_EQ(sim.kernel(), Simulator::Kernel::kEvent);
  sim.set_kernel(Simulator::Kernel::kBruteForce);
  EXPECT_EQ(sim.kernel(), Simulator::Kernel::kBruteForce);
  Counter c(sim);
  Doubler d(sim, c.next);
  sim.run(4);
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(d.out.peek(), 8u);
}

TEST(Simulator, PendingReevalsZeroAtEveryCycleBoundary) {
  Simulator sim;
  Counter c(sim);
  Doubler d(sim, c.next);
  for (int i = 0; i < 5; ++i) {
    sim.step();
    EXPECT_EQ(sim.pending_reevals(), 0u);
  }
}

TEST(Simulator, ResetDropsPendingDirtyState) {
  Simulator sim;
  Counter c(sim);
  Doubler d(sim, c.next);
  sim.run(3);
  ASSERT_EQ(sim.pending_reevals(), 0u);
  // A stray wire write between cycles wakes the recorded readers; reset()
  // must drop that state so the first settle after reset starts clean.
  c.next.set(999);
  sim.reset();
  EXPECT_EQ(sim.pending_reevals(), 0u);
  sim.run(2);
  EXPECT_EQ(c.value(), 2u);
  // Cycle 2's settle saw next == 2, doubled.
  EXPECT_EQ(d.out.peek(), 4u);
}

TEST(Simulator, ConditionalReadSubscribesMidSettle) {
  // Q reads `data` only while `sel` is true.  `sel` flips mid-settle
  // (Q is registered first, its driver last), so Q's subscription to
  // `data` is created by the re-evaluation pass — the fixed point must
  // still pick up the live `data` value within the same cycle.
  class Selector : public Component {
   public:
    Selector(Simulator& s, Wire<bool>& sel, Wire<int>& data)
        : Component(s, "selector"), out(s), sel_(&sel), data_(&data) {}
    Wire<int> out;
    void eval() override { out.set(sel_->get() ? data_->get() : -1); }
   private:
    Wire<bool>* sel_;
    Wire<int>* data_;
  };
  class SelDriver : public Component {
   public:
    explicit SelDriver(Simulator& s) : Component(s, "sel_driver"), sel(s) {}
    Wire<bool> sel;
    void eval() override { sel.set(enable_); }
    void commit() override {
      if (!enable_) {
        enable_ = true;
        mark_active();
      }
    }
    void reset() override { enable_ = false; }
   private:
    bool enable_ = false;
  };
  Simulator sim;
  Wire<bool>* sel_wire = nullptr;
  Quiet data_src(sim);
  SelDriver drv(sim);
  sel_wire = &drv.sel;
  Selector q(sim, *sel_wire, data_src.out);
  sim.step();  // sel still false this cycle
  EXPECT_EQ(q.out.peek(), -1);
  sim.step();  // sel true: Q must read data (7) in the same settle
  EXPECT_EQ(q.out.peek(), 7);
}

TEST(Simulator, ExplicitSensitivityCoversPeekReaders) {
  // A monitor that observes through peek() leaves no automatic footprint;
  // sensitive_to() must still get it re-evaluated when the wire moves
  // late in the settle (the monitor is registered before the driver).
  class Monitor : public Component {
   public:
    explicit Monitor(Simulator& s) : Component(s, "monitor"), out(s) {}
    Wire<std::uint64_t> out;
    void bind(Wire<std::uint64_t>& watched) { watched_ = &watched; }
    void eval() override {
      out.set(watched_ == nullptr ? std::uint64_t{0} : watched_->peek());
    }
   private:
    Wire<std::uint64_t>* watched_ = nullptr;
  };
  Simulator sim;
  Monitor mon(sim);  // registered before the driver: without a recorded
  Counter c(sim);    // sensitivity the peeked value would settle one pass
  mon.bind(c.next);  // stale under the dirty-queue kernel
  c.next.sensitive_to(mon);
  sim.step();
  EXPECT_EQ(mon.out.peek(), 1u);
  sim.step();
  EXPECT_EQ(mon.out.peek(), 2u);
}

TEST(Simulator, CombinationalLoopDetectedUnderBruteForce) {
  Simulator sim;
  sim.set_kernel(Simulator::Kernel::kBruteForce);
  Oscillator osc(sim);
  EXPECT_THROW(sim.step(), SimError);
}

TEST(Simulator, CombinationalLoopLeavesNoQueuedWork) {
  Simulator sim;
  Oscillator osc(sim);
  EXPECT_THROW(sim.step(), SimError);
  // The failed settle must not leave components queued (they would dangle
  // if destroyed, and would corrupt the next settle's accounting).
  EXPECT_EQ(sim.pending_reevals(), 0u);
}

/// A registered counter that only advances while its enable wire is high.
/// Exercises the event kernel's commit demotion (enable low: registers
/// stop changing) and re-promotion (a recorded input wire changes).
class GatedCounter : public Component {
 public:
  GatedCounter(Simulator& sim, Wire<bool>& enable)
      : Component(sim, "gated"), en_(&enable) {}
  void eval() override {}
  void commit() override {
    if (en_->get()) {
      ++value_;
      mark_active();
    }
  }
  void reset() override { value_ = 0; }
  std::uint64_t value() const { return value_; }

 private:
  Wire<bool>* en_;
  std::uint64_t value_ = 0;
};

TEST(EventKernel, SkipsIdleComponentsInSettleAndCommit) {
  Simulator sim;
  sim.set_kernel(Simulator::Kernel::kEvent);
  Wire<bool> en(sim);
  GatedCounter g(sim, en);
  en.set(true);
  sim.run(3);
  EXPECT_EQ(g.value(), 3u);
  en.set(false);
  sim.step();  // last commit leaves the register unchanged: demotion
  EXPECT_EQ(g.value(), 3u);
  EXPECT_EQ(sim.commit_set_size(), 0u);
  const std::uint64_t evals_before = sim.evals_performed();
  sim.run(5);  // fully idle: no evals, no commits
  EXPECT_EQ(g.value(), 3u);
  EXPECT_EQ(sim.evals_performed(), evals_before);
  en.set(true);  // recorded commit-time read: the wire change re-promotes
  sim.run(2);
  EXPECT_EQ(g.value(), 5u);
}

TEST(EventKernel, ExplicitWakeSchedulesOneEvaluation) {
  class EvalCounting : public Component {
   public:
    explicit EvalCounting(Simulator& s) : Component(s, "ec") {}
    void eval() override { ++evals; }
    int evals = 0;
  };
  Simulator sim;
  sim.set_kernel(Simulator::Kernel::kEvent);
  EvalCounting ec(sim);
  sim.run(3);  // settles once at construction, then goes quiet
  const int evals_idle = ec.evals;
  sim.run(3);
  EXPECT_EQ(ec.evals, evals_idle);
  ec.wake();
  sim.step();
  EXPECT_EQ(ec.evals, evals_idle + 1);
}

TEST(EventKernel, MatchesBruteForceWithFewerEvals) {
  // Counter -> Doubler plus eight quiet components: both kernels must
  // reach the same fixed point; the event kernel must get there without
  // re-running the quiet components, which stay skipped at the start of
  // every settle and on every later pass.
  const auto run = [](Simulator::Kernel k) {
    Simulator sim;
    sim.set_kernel(k);
    Counter c(sim);
    Doubler d(sim, c.next);
    std::vector<std::unique_ptr<Quiet>> quiet;
    for (int i = 0; i < 8; ++i) {
      quiet.push_back(std::make_unique<Quiet>(sim));
    }
    sim.run(50);
    return std::pair<std::uint64_t, std::uint64_t>(sim.evals_performed(),
                                                   d.out.peek());
  };
  const auto [evals_brute, out_brute] = run(Simulator::Kernel::kBruteForce);
  const auto [evals_event, out_event] = run(Simulator::Kernel::kEvent);
  EXPECT_EQ(out_event, out_brute);
  EXPECT_EQ(out_event, 100u);  // next == 50 on the last settle, doubled
  // Brute force evaluates all ten components on every pass.  The event
  // kernel evaluates each component once at construction and then at most
  // twice per cycle: the counter and the doubler.  The counter's commit
  // reads its own `next` wire, which arms its commit, not its eval.
  EXPECT_LE(evals_event, 10u + 2u * 50u);
  EXPECT_LT(evals_event, evals_brute);
}

TEST(EventKernel, PendingReevalsZeroAtEveryCycleBoundary) {
  Simulator sim;
  sim.set_kernel(Simulator::Kernel::kEvent);
  Counter c(sim);
  Doubler d(sim, c.next);
  for (int i = 0; i < 5; ++i) {
    sim.step();
    EXPECT_EQ(sim.pending_reevals(), 0u);
  }
}

TEST(EventKernel, ResetMidActivityMatchesBruteForceFixedPoint) {
  // Reset while activity is in flight (including a stray host-side wire
  // write) must drop every piece of carried-over activity state and
  // reprime the wake set, so the first post-reset cycle reaches exactly
  // the brute-force fixed point — not a stale quiet set's.
  const auto run = [](Simulator::Kernel k) {
    Simulator sim;
    sim.set_kernel(k);
    Counter c(sim);
    Doubler d(sim, c.next);
    sim.run(3);
    c.next.set(999);  // stray write mid-activity
    sim.reset();
    EXPECT_EQ(sim.pending_reevals(), 0u);
    sim.step();
    return std::pair<std::uint64_t, std::uint64_t>(c.value(), d.out.peek());
  };
  const auto brute = run(Simulator::Kernel::kBruteForce);
  const auto event = run(Simulator::Kernel::kEvent);
  EXPECT_EQ(event, brute);
  EXPECT_EQ(event.first, 1u);
  EXPECT_EQ(event.second, 2u);
}

TEST(EventKernel, ComponentAddedMidRunSettlesInItsFirstCycle) {
  // A component registered after the design went quiet has never run: it
  // must be evaluated and committed in its first cycle, and reading a
  // producer that is itself active must subscribe it like any other reader.
  Simulator sim;
  sim.set_kernel(Simulator::Kernel::kEvent);
  Counter c(sim);
  sim.run(3);
  EXPECT_EQ(c.value(), 3u);
  Doubler d(sim, c.next);
  sim.run(2);
  EXPECT_EQ(c.value(), 5u);
  // Cycle 5's settle saw next == 5, doubled in the same cycle.
  EXPECT_EQ(d.out.peek(), 10u);
}

TEST(EventKernel, KernelSwitchMidRunContinuesFromLiveState) {
  // Switching kernels between cycles, in both directions, continues from
  // the live register and wire state; the event kernel must not inherit a
  // quiet set the brute-force kernel never maintained.
  Simulator sim;
  sim.set_kernel(Simulator::Kernel::kEvent);
  Counter c(sim);
  Doubler d(sim, c.next);
  sim.run(3);
  sim.set_kernel(Simulator::Kernel::kBruteForce);
  sim.run(3);
  EXPECT_EQ(c.value(), 6u);
  EXPECT_EQ(d.out.peek(), 12u);
  sim.set_kernel(Simulator::Kernel::kEvent);
  sim.run(3);
  EXPECT_EQ(c.value(), 9u);
  EXPECT_EQ(d.out.peek(), 18u);
}

TEST(EventKernel, CombinationalLoopLeavesRecoverableState) {
  // A ring oscillator behind an enable: while enabled it never converges.
  // The failed settle must leave no queued work and wake everything, so
  // that once the loop is broken stepping continues and the rest of the
  // design reaches the brute-force fixed point.
  class GatedOscillator : public Component {
   public:
    GatedOscillator(Simulator& s, Wire<bool>& enable)
        : Component(s, "gated_osc"), a(s), b(s), en_(&enable) {}
    Wire<bool> a, b;
    void eval() override {
      if (en_->get()) {
        a.set(!b.get());
        b.set(a.get());
      }
    }
   private:
    Wire<bool>* en_;
  };
  Simulator sim;
  sim.set_kernel(Simulator::Kernel::kEvent);
  Wire<bool> en(sim);
  Counter c(sim);
  Doubler d(sim, c.next);
  GatedOscillator osc(sim, en);
  sim.run(2);
  en.set(true);
  EXPECT_THROW(sim.step(), SimError);
  EXPECT_EQ(sim.pending_reevals(), 0u);
  en.set(false);
  sim.run(2);
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(d.out.peek(), 8u);
}

TEST(EventKernel, ThrowingCommitLeavesRecoverableState) {
  // Two registered counters; the first one's commit throws once, at the
  // fourth step, before it ticks.  The caller catches and keeps stepping:
  // every commit after the thrower must still run from the next cycle on,
  // exactly as under the brute-force kernel.
  class Faulting : public Component {
   public:
    Faulting(Simulator& s, std::uint64_t throw_at)
        : Component(s, "faulting"), throw_at_(throw_at) {}
    void commit() override {
      if (++commits_ == throw_at_) {
        throw SimError("injected commit fault");
      }
      ++value_;
      mark_active();
    }
    std::uint64_t value() const { return value_; }

   private:
    std::uint64_t throw_at_;
    std::uint64_t commits_ = 0;
    std::uint64_t value_ = 0;
  };
  const auto run = [](Simulator::Kernel kernel) {
    Simulator sim;
    sim.set_kernel(kernel);
    Faulting first(sim, 4);
    Faulting second(sim, 0);
    sim.run(3);
    EXPECT_THROW(sim.step(), SimError);
    sim.run(5);
    return std::pair{first.value(), second.value()};
  };
  const auto brute = run(Simulator::Kernel::kBruteForce);
  EXPECT_EQ(brute, (std::pair<std::uint64_t, std::uint64_t>{8, 8}));
  EXPECT_EQ(run(Simulator::Kernel::kEvent), brute);
}

TEST(EventKernel, ThrowingEvalLeavesRecoverableState) {
  // The first component's eval() throws once, at cycle 3, before driving
  // its output.  Between cycles the caller catches, pokes a host-visible
  // value into a second component and wakes it; monitors latch both
  // components' outputs every cycle.  The poked value must reach its
  // monitor from the next cycle on, and the thrower must be re-evaluated
  // in the retried cycle, exactly as under the brute-force kernel.
  class Faulting : public Component {
   public:
    explicit Faulting(Simulator& s) : Component(s, "faulting"), out(s) {
      make_always_active();
    }
    Wire<std::uint64_t> out;
    void eval() override {
      if (simulator().cycle() == 3 && !thrown_) {
        thrown_ = true;
        throw SimError("injected eval fault");
      }
      out.set(simulator().cycle());
    }

   private:
    bool thrown_ = false;
  };
  class Poked : public Component {
   public:
    explicit Poked(Simulator& s) : Component(s, "poked"), out(s) {}
    Wire<std::uint64_t> out;
    void poke(std::uint64_t v) {
      value_ = v;
      wake();
    }
    void eval() override { out.set(value_); }

   private:
    std::uint64_t value_ = 0;
  };
  class Latch : public Component {
   public:
    Latch(Simulator& s, Wire<std::uint64_t>& in)
        : Component(s, "latch"), in_(&in) {
      make_always_active();
    }
    void commit() override { log.push_back(in_->get()); }
    std::vector<std::uint64_t> log;

   private:
    Wire<std::uint64_t>* in_;
  };
  const auto run = [](Simulator::Kernel kernel) {
    Simulator sim;
    sim.set_kernel(kernel);
    Faulting a(sim);
    Poked c(sim);
    Latch d(sim, c.out);
    Latch e(sim, a.out);
    sim.run(3);
    EXPECT_THROW(sim.step(), SimError);
    EXPECT_EQ(sim.pending_reevals(), 0u);
    c.poke(100);
    sim.run(4);
    return std::pair{d.log, e.log};
  };
  const auto brute = run(Simulator::Kernel::kBruteForce);
  EXPECT_EQ(brute.first,
            (std::vector<std::uint64_t>{0, 0, 0, 100, 100, 100, 100}));
  EXPECT_EQ(brute.second, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(run(Simulator::Kernel::kEvent), brute);
}

/// Drives `out` high from cycle `at` on, a function of time alone: its
/// commit announces the edge with a timed wake instead of staying active.
class Alarm : public Component {
 public:
  Alarm(Simulator& s, std::uint64_t at)
      : Component(s, "alarm"), out(s), at_(at) {}
  Wire<bool> out;
  void eval() override {
    ++evals;
    out.set(simulator().cycle() >= at_);
  }
  void commit() override {
    ++commits;
    if (simulator().cycle() < at_) {
      wake_at(at_);
    }
  }
  int evals = 0;
  int commits = 0;

 private:
  std::uint64_t at_;
};

TEST(EventKernel, TimedWakeSleepsUntilItsCycle) {
  const auto run = [](Simulator::Kernel kernel) {
    Simulator sim;
    sim.set_kernel(kernel);
    Alarm alarm(sim, 40);
    std::vector<bool> seen;
    for (int i = 0; i < 50; ++i) {
      sim.step();
      seen.push_back(alarm.out.peek());
    }
    return std::tuple{seen, alarm.evals, alarm.commits};
  };
  const auto [brute_seen, brute_evals, brute_commits] =
      run(Simulator::Kernel::kBruteForce);
  const auto [event_seen, event_evals, event_commits] =
      run(Simulator::Kernel::kEvent);
  EXPECT_EQ(event_seen, brute_seen);
  EXPECT_FALSE(event_seen[38]);
  EXPECT_TRUE(event_seen[40]);
  // Evaluated and committed at construction and again at cycle 40 only.
  EXPECT_EQ(event_evals, 2);
  EXPECT_EQ(event_commits, 2);
  EXPECT_EQ(brute_commits, 50);
}

TEST(EventKernel, EarliestTimedWakeWinsAndResetDropsTimers) {
  class Sleeper : public Component {
   public:
    explicit Sleeper(Simulator& s) : Component(s, "sleeper") {}
    void commit() override { woken_at.push_back(simulator().cycle()); }
    using Component::wake_at;
    std::vector<std::uint64_t> woken_at;
  };
  Simulator sim;
  Sleeper z(sim);
  sim.step();  // construction wake
  z.wake_at(9);
  z.wake_at(5);  // earlier: supersedes 9
  z.wake_at(7);  // later than the pending 5: dropped
  sim.run(12);
  // Woken once, at 5; the superseded 9 and the dropped 7 never fire.
  EXPECT_EQ(z.woken_at, (std::vector<std::uint64_t>{0, 5}));

  z.wake_at(20);
  sim.reset();  // wakes everything once, and drops the pending timer
  z.woken_at.clear();
  sim.run(30);
  EXPECT_EQ(z.woken_at, (std::vector<std::uint64_t>{0}));

  // Under the brute-force kernel a timed wake is a no-op: every commit
  // runs anyway, so no timer piles up.
  sim.set_kernel(Simulator::Kernel::kBruteForce);
  z.wake_at(sim.cycle() + 3);
  z.woken_at.clear();
  sim.run(4);
  EXPECT_EQ(z.woken_at.size(), 4u);
}

TEST(EventKernel, RemovalCompactsIndicesAndKeepsPendingWakes) {
  // Three components; the middle one is destroyed between cycles while the
  // last one has a pending wake.  The survivor moves down one index and
  // must still be evaluated — and a component destroyed mid-step by
  // another's commit must be skipped, and its hole compacted before the
  // next sweep.
  class Counting : public Component {
   public:
    explicit Counting(Simulator& s) : Component(s, "counting") {}
    void eval() override { ++evals; }
    int evals = 0;
  };
  class Destroyer : public Component {
   public:
    Destroyer(Simulator& s, std::unique_ptr<Counting>& victim)
        : Component(s, "destroyer"), victim_(&victim) {}
    void commit() override {
      if (armed) {
        armed = false;
        victim_->reset();
      }
    }
    bool armed = false;

   private:
    std::unique_ptr<Counting>* victim_;
  };
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Simulator sim;
    sim.set_kernel(kernel);
    Counting first(sim);
    auto middle = std::make_unique<Counting>(sim);
    Counting last(sim);
    sim.run(2);
    const int last_evals = last.evals;
    last.wake();
    middle.reset();
    sim.step();
    EXPECT_EQ(last.evals, last_evals + 1);

    std::unique_ptr<Counting> victim;
    Destroyer destroyer(sim, victim);
    victim = std::make_unique<Counting>(sim);  // registered after destroyer
    sim.step();
    destroyer.armed = true;
    destroyer.wake();
    victim->wake();  // its commit is due in the same sweep, after destroyer
    sim.step();
    EXPECT_EQ(victim, nullptr);
    Counting added(sim);
    sim.run(2);
    EXPECT_GE(added.evals, 1);
    EXPECT_EQ(sim.pending_reevals(), 0u);
  }
}

TEST(EventKernel, CommitOnlyReadArmsCommitWithoutEval) {
  // A driver toggles W every third cycle.  A samples W only in commit();
  // B reads W in eval().  An edge of W must re-run B's eval and arm both
  // commits, but must not evaluate A: A's eval() never read W.
  class Toggler : public Component {
   public:
    explicit Toggler(Simulator& s) : Component(s, "toggler"), w(s) {}
    Wire<bool> w;
    void eval() override { w.set(count_ / 3 % 2 == 1); }
    void commit() override {
      ++count_;
      mark_active();
    }

   private:
    std::uint64_t count_ = 0;
  };
  class Sampler : public Component {
   public:
    Sampler(Simulator& s, const Wire<bool>& w, bool in_eval)
        : Component(s, "sampler"), out(s), w_(&w), in_eval_(in_eval) {}
    Wire<bool> out;
    void eval() override {
      eval_cycles.push_back(simulator().cycle());
      out.set(in_eval_ ? !w_->get() : latched_);
    }
    void commit() override {
      commit_cycles.push_back(simulator().cycle());
      if (w_->get() != latched_) {
        latched_ = w_->get();
        mark_active();
      }
    }
    bool latched() const { return latched_; }
    std::vector<std::uint64_t> eval_cycles;
    std::vector<std::uint64_t> commit_cycles;

   private:
    const Wire<bool>* w_;
    bool in_eval_;
    bool latched_ = false;
  };
  const auto run = [](Simulator::Kernel kernel) {
    Simulator sim;
    sim.set_kernel(kernel);
    Toggler t(sim);
    Sampler a(sim, t.w, /*in_eval=*/false);
    Sampler b(sim, t.w, /*in_eval=*/true);
    std::vector<bool> w;
    std::vector<std::tuple<bool, bool, bool, bool>> latched;
    for (int i = 0; i < 30; ++i) {
      sim.step();
      w.push_back(t.w.peek());
      latched.emplace_back(a.latched(), a.out.peek(), b.latched(),
                           b.out.peek());
    }
    return std::tuple{w, latched, a.eval_cycles, a.commit_cycles,
                      b.eval_cycles, b.commit_cycles};
  };
  const auto brute = run(Simulator::Kernel::kBruteForce);
  const auto [w, latched, a_evals, a_commits, b_evals, b_commits] =
      run(Simulator::Kernel::kEvent);
  EXPECT_EQ(w, std::get<0>(brute));
  EXPECT_EQ(latched, std::get<1>(brute));

  const auto has = [](const std::vector<std::uint64_t>& cycles,
                      std::uint64_t c) {
    return std::find(cycles.begin(), cycles.end(), c) != cycles.end();
  };
  int edges = 0;
  for (std::uint64_t c = 1; c < w.size(); ++c) {
    if (w[c] == w[c - 1]) {
      continue;
    }
    ++edges;
    SCOPED_TRACE(c);
    EXPECT_TRUE(has(a_commits, c));
    EXPECT_FALSE(has(a_evals, c));
    EXPECT_TRUE(has(b_commits, c));
    EXPECT_TRUE(has(b_evals, c));
  }
  EXPECT_EQ(edges, 9);
  // A is evaluated at construction and, because its latch changed, in the
  // cycle after each edge — never for the edge itself.
  EXPECT_EQ(a_evals.size(), 1u + static_cast<std::size_t>(edges));
}

TEST(EventKernel, EvalReadUpgradesACommitOnlySubscription) {
  // The gate's commit samples W from the first cycle on, so W first lists
  // it as a commit-only reader.  Once the gate opens, its eval() reads W
  // too; that read must upgrade the subscription, or a later change of W
  // would arm only the commit and leave `out` a cycle stale.
  class Gate : public Component {
   public:
    Gate(Simulator& s, const Wire<int>& w, const Wire<bool>& en)
        : Component(s, "gate"), out(s), w_(&w), en_(&en) {}
    Wire<int> out;
    void eval() override { out.set(open_ ? w_->get() : -1); }
    void commit() override {
      if (w_->get() != seen_ || en_->get() != open_) {
        seen_ = w_->get();
        open_ = en_->get();
        mark_active();
      }
    }

   private:
    const Wire<int>* w_;
    const Wire<bool>* en_;
    int seen_ = 0;
    bool open_ = false;
  };
  const auto run = [](Simulator::Kernel kernel) {
    Simulator sim;
    sim.set_kernel(kernel);
    Wire<int> w(sim, 1);
    Wire<bool> en(sim, false);
    Gate gate(sim, w, en);
    std::vector<int> out;
    for (int c = 0; c < 16; ++c) {
      // Between cycles, as host code would.
      if (c == 5) {
        en.set(true);
      }
      if (c == 10) {
        w.set(42);
      }
      sim.step();
      out.push_back(gate.out.peek());
    }
    return out;
  };
  const std::vector<int> brute = run(Simulator::Kernel::kBruteForce);
  EXPECT_EQ(brute[6], 1);
  EXPECT_EQ(brute[10], 42);
  EXPECT_EQ(run(Simulator::Kernel::kEvent), brute);
}

TEST(EventKernel, ReaderBitmapsPastOneWordSurviveCompaction) {
  // 140 components (three bitmap words) whose readers and wires sit in
  // different words, eval-readers and commit-only readers both.  Leaves
  // are destroyed between cycles, so the next step() compacts the
  // survivors down across word boundaries.  Both kernels must agree cycle
  // by cycle, and the same stretch after a reset must cost the survivors
  // the same evals and commits before and after compaction: a commit-only
  // subscription that compaction turned into an eval one would add evals.
  constexpr std::size_t kNodes = 140;
  constexpr std::size_t kDestroyBelow = 120;
  struct Run {
    std::vector<std::vector<std::uint32_t>> trace;
    std::uint64_t evals[2] = {0, 0};
    std::uint64_t commits[2] = {0, 0};
  };
  const auto run = [&](Simulator::Kernel kernel) {
    Simulator sim;
    sim.set_kernel(kernel);
    testing::ReaderMesh mesh(sim, kNodes);
    std::vector<bool> doomed(kNodes);
    for (std::size_t i = 0; i < kDestroyBelow; ++i) {
      doomed[i] = mesh.leaf(i);
    }
    Run out;
    const auto stretch = [&](int phase) {
      sim.reset();
      sim.step();  // a reset wakes everything once
      std::uint64_t evals = 0;
      std::uint64_t commits = 0;
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (!doomed[i]) {
          evals -= mesh.nodes[i]->evals;
          commits -= mesh.nodes[i]->commits;
        }
      }
      for (int c = 0; c < 60; ++c) {
        sim.step();
        out.trace.push_back(mesh.snapshot());
      }
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (!doomed[i]) {
          evals += mesh.nodes[i]->evals;
          commits += mesh.nodes[i]->commits;
        }
      }
      out.evals[phase] = evals;
      out.commits[phase] = commits;
    };
    for (int c = 0; c < 40; ++c) {
      sim.step();
      out.trace.push_back(mesh.snapshot());
    }
    stretch(0);
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (doomed[i]) {
        mesh.nodes[i].reset();
      }
    }
    for (int c = 0; c < 40; ++c) {  // the first of these compacts
      sim.step();
      out.trace.push_back(mesh.snapshot());
    }
    stretch(1);
    return out;
  };
  const Run brute = run(Simulator::Kernel::kBruteForce);
  const Run event = run(Simulator::Kernel::kEvent);
  EXPECT_EQ(event.trace, brute.trace);
  EXPECT_EQ(event.evals[1], event.evals[0]);
  EXPECT_EQ(event.commits[1], event.commits[0]);
  // The stretch is sparse: most survivors sit idle most cycles.
  EXPECT_LT(event.evals[0], brute.evals[0] / 2);
}

TEST(Counters, HandleInterningAndBump) {
  Counters c;
  const Counters::Handle h = c.handle("dispatch.unit");
  EXPECT_EQ(c.handle("dispatch.unit"), h);  // idempotent
  c.bump(h);
  c.bump(h, 4);
  EXPECT_EQ(c.get(h), 5u);
  EXPECT_EQ(c.get("dispatch.unit"), 5u);
  EXPECT_EQ(c.name(h), "dispatch.unit");
  c.bump("other");  // string compatibility path
  EXPECT_EQ(c.get("other"), 1u);
  EXPECT_EQ(c.size(), 2u);
  const auto snapshot = c.all();
  EXPECT_EQ(snapshot.at("dispatch.unit"), 5u);
  EXPECT_EQ(snapshot.at("other"), 1u);
  EXPECT_EQ(c.get("never_bumped"), 0u);
}

TEST(Counters, ClearZeroesValuesButKeepsHandles) {
  Counters c;
  const Counters::Handle h = c.handle("stall.lock");
  c.bump(h, 9);
  c.clear();
  EXPECT_EQ(c.get(h), 0u);
  c.bump(h, 2);  // handle still valid after clear
  EXPECT_EQ(c.get(h), 2u);
  EXPECT_EQ(c.handle("stall.lock"), h);
}

TEST(Reg, DQSplit) {
  // The d/q split of a register, on a plain field: a value commit() stores
  // at cycle t is what eval() sees from cycle t + 1 on, never in cycle t
  // itself, under every kernel; reset() restores the power-on value.
  class Latch : public Component {
   public:
    Latch(Simulator& s, const Wire<int>& d, const Wire<bool>& en)
        : Component(s, "latch"), q(s), d_(&d), en_(&en) {}
    Wire<int> q;
    std::vector<std::pair<std::uint64_t, int>> seen;  ///< (cycle, value)
    void eval() override {
      seen.emplace_back(simulator().cycle(), value_);
      q.set(value_);
    }
    void commit() override {
      if (en_->get() && d_->get() != value_) {
        value_ = d_->get();
        mark_active();
      }
    }
    void reset() override { value_ = 5; }
    int value() const { return value_; }

   private:
    const Wire<int>* d_;
    const Wire<bool>* en_;
    int value_ = 5;
  };
  for (const Simulator::Kernel kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Simulator sim;
    sim.set_kernel(kernel);
    Wire<int> d(sim, 9);
    Wire<bool> en(sim, false);
    Latch latch(sim, d, en);
    sim.run(2);
    EXPECT_EQ(latch.q.peek(), 5);
    en.set(true);
    sim.step();  // cycle 2 commits 9
    EXPECT_EQ(latch.value(), 9);
    EXPECT_EQ(latch.q.peek(), 5);  // not visible in the committing cycle
    sim.step();
    EXPECT_EQ(latch.q.peek(), 9);
    bool evaluated_after = false;
    for (const auto& [cycle, value] : latch.seen) {
      EXPECT_EQ(value, cycle <= 2 ? 5 : 9) << "eval at cycle " << cycle;
      evaluated_after = evaluated_after || cycle == 3;
    }
    EXPECT_TRUE(evaluated_after);
    en.set(false);
    sim.reset();
    EXPECT_EQ(latch.value(), 5);
    sim.step();
    EXPECT_EQ(latch.q.peek(), 5);
  }
}

}  // namespace
}  // namespace fpgafu::sim

// The dispatcher counts stall cycles lazily: a stalled dispatcher sleeps,
// and the elapsed cycles reach stall.{lock,unit_busy,sync} when the stall
// ends, its reason changes, the RTM's counters are read or the system is
// reset.  These tests read the counters in the middle of stalls, at cycles
// the event kernel reaches by skipping quiet stretches, and check them
// against the brute-force kernel and against a cycle-by-cycle oracle that
// watches the dispatcher's input handshake.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "host/driver.hpp"
#include "isa/assembler.hpp"
#include "sim/component.hpp"
#include "top/system.hpp"

namespace fpgafu {
namespace {

using sim::Simulator;

/// A 64-bit machine: its FSM multiply holds the muldiv unit for 64 cycles.
top::SystemConfig wide_config() {
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;
  return cfg;
}

/// MUL r3 holds the muldiv unit for 64 cycles.  MUL r4 then waits on r5's
/// lock while the 30-cycle CORDIC SIN ahead of it computes r5, and once
/// that lands, on the still busy muldiv unit: a lock -> unit_busy change of
/// reason inside one stall.  (An in-order dispatcher cannot take a lock
/// while an instruction waits at it, so unit_busy -> lock happens across
/// instructions.)  It does here: MUL r4 dispatches and GET r4 waits on r4's
/// lock for the whole second multiply.
constexpr const char* kProgram = R"(
  PUTI r1, 3
  PUTI r2, 5
  MUL r3, r1, r2, f1
  SIN r5, r1, f2
  MUL r4, r5, r2, f3
  GET r4
)";

/// Cycles at which the counters are read: before any stall, inside MUL
/// r4's stall (lock until cycle 42, unit_busy until 74), then inside GET
/// r4's lock stall (from cycle 76).
constexpr std::array<std::uint64_t, 6> kCheckpoints = {5, 20, 47, 70, 101,
                                                       130};

/// Counts, cycle by cycle, the cycles in which the dispatcher holds an
/// instruction it cannot launch: its input handshake is valid and not
/// ready (a launch or an exec hand-off sets ready).  Always active, so it
/// sees every cycle under either kernel.
class StallOracle : public sim::Component {
 public:
  StallOracle(Simulator& s, sim::Handshake<rtm::DecodedInst>& in)
      : Component(s, "stall_oracle"), in_(&in) {
    make_always_active();
  }
  void commit() override {
    if (in_->valid.get() && !in_->ready.get()) {
      ++stalled;
    }
  }
  std::uint64_t stalled = 0;

 private:
  sim::Handshake<rtm::DecodedInst>* in_;
};

struct Reading {
  std::uint64_t lock = 0;
  std::uint64_t unit_busy = 0;
  std::uint64_t sync = 0;
  std::uint64_t oracle = 0;

  std::uint64_t total() const { return lock + unit_busy + sync; }
  bool operator==(const Reading& o) const {
    return lock == o.lock && unit_busy == o.unit_busy && sync == o.sync;
  }
};

Reading read(top::System& sys) {
  const sim::Counters& c = sys.rtm().counters();
  return {c.get("stall.lock"), c.get("stall.unit_busy"), c.get("stall.sync"),
          0};
}

/// Run the program on `kernel`, reading the counters at every checkpoint;
/// with `oracle`, also record the oracle's count there.  The clock moves
/// by Simulator::advance, so the event kernel skips what it can.  With
/// `reset_at`, the system is reset at that checkpoint, before its reading,
/// and run on.
std::vector<Reading> run(Simulator::Kernel kernel, bool oracle,
                         std::size_t reset_at = kCheckpoints.size()) {
  top::System sys(wide_config());
  Simulator& sim = sys.simulator();
  sim.set_kernel(kernel);
  // The dispatcher's input handshake, reached through the (const) view the
  // RTM gives of its dispatcher: the oracle only reads it.
  std::unique_ptr<StallOracle> probe;
  if (oracle) {
    probe = std::make_unique<StallOracle>(sim, *sys.rtm().dispatcher().in);
  }
  host::Driver driver(sys);
  driver.enqueue(isa::Assembler::assemble(kProgram));
  driver.service();
  std::vector<Reading> out;
  for (std::size_t i = 0; i < kCheckpoints.size(); ++i) {
    while (sim.cycle() < kCheckpoints[i]) {
      sim.advance(kCheckpoints[i]);
    }
    EXPECT_EQ(sim.cycle(), kCheckpoints[i]);
    if (i == reset_at) {
      // Reset first, read after: the reset itself must settle the open
      // stall, as no read has since it began.
      sim.reset();
      sys.rtm().clear_state();
      driver.reset();
    }
    Reading r = read(sys);
    r.oracle = probe ? probe->stalled : 0;
    out.push_back(r);
    if (i == reset_at) {
      // The reset rewound the clock: keep the remaining checkpoints ahead.
      sim.run(kCheckpoints[i]);
    }
  }
  return out;
}

TEST(LazyStallAccounting, MidStallReadsMatchTheCyclesStalledSoFar) {
  const std::vector<Reading> brute = run(Simulator::Kernel::kBruteForce, true);
  for (std::size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(brute[i].total(), brute[i].oracle)
        << "checkpoint cycle " << kCheckpoints[i];
  }
  const std::vector<Reading> event = run(Simulator::Kernel::kEvent, false);
  for (std::size_t i = 0; i < event.size(); ++i) {
    EXPECT_TRUE(event[i] == brute[i])
        << "checkpoint cycle " << kCheckpoints[i] << ": event lock "
        << event[i].lock << " unit_busy " << event[i].unit_busy
        << ", brute lock " << brute[i].lock << " unit_busy "
        << brute[i].unit_busy;
  }
  // Each checkpoint sits inside the stall it is meant to: the counts grow
  // for the reason of the moment and hold for the other.
  EXPECT_EQ(brute[0].total(), 0u);
  EXPECT_GT(brute[1].lock, 0u);
  EXPECT_EQ(brute[1].unit_busy, 0u);
  EXPECT_GT(brute[2].unit_busy, 0u);
  EXPECT_GT(brute[3].unit_busy, brute[2].unit_busy);
  EXPECT_EQ(brute[3].lock, brute[2].lock);
  EXPECT_GT(brute[4].lock, brute[3].lock);
  EXPECT_GT(brute[5].lock, brute[4].lock);
  EXPECT_EQ(brute[5].unit_busy, brute[3].unit_busy + 4);  // ends at 74
  EXPECT_EQ(brute.back().sync, 0u);
}

TEST(LazyStallAccounting, AResetMidStallKeepsTheCyclesBeforeIt) {
  // Reset inside MUL r4's unit_busy stall (checkpoint 3, cycle 70; the
  // last read was at cycle 47): the cycles stalled up to the reset stay
  // counted and nothing accrues after it, because nothing is left to
  // stall.
  constexpr std::size_t kResetAt = 3;
  const std::vector<Reading> brute =
      run(Simulator::Kernel::kBruteForce, true, kResetAt);
  const std::vector<Reading> event =
      run(Simulator::Kernel::kEvent, false, kResetAt);
  for (std::size_t i = 0; i < brute.size(); ++i) {
    EXPECT_TRUE(event[i] == brute[i]) << "checkpoint " << i;
    EXPECT_EQ(brute[i].total(), brute[i].oracle) << "checkpoint " << i;
  }
  EXPECT_GT(brute[kResetAt].unit_busy, 0u);
  for (std::size_t i = kResetAt + 1; i < brute.size(); ++i) {
    EXPECT_TRUE(brute[i] == brute[kResetAt]) << "checkpoint " << i;
  }
}

}  // namespace
}  // namespace fpgafu

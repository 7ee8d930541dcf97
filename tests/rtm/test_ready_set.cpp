// The write arbiter's ready set under hot-swap churn.
//
// The arbiter grants from a ready set the FunctionalUnitTable keeps on
// data_ready edges, and the dispatcher and arbiter drive only the slots
// whose dispatch/acknowledge lines change.  This file pins that behaviour
// to the per-slot scan it replaced: after every cycle an oracle re-derives
// the grant by reading every attached unit's data_ready in the scan order
// (fixed priority from slot 0, or round-robin from the slot after the last
// grant) and checks the acknowledge lines, the retirement count and the
// contention count against it.  Units are attached, drained, detached and
// re-attached into reused slots — sometimes into a different slot than
// they held before — while other units' writes are in flight, under both
// grant policies and every settle kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "isa/arith.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "support/rtm_harness.hpp"
#include "util/rng.hpp"

namespace fpgafu::rtm {
namespace {

using fpgafu::testing::RtmRig;
using sim::Simulator;

constexpr int kCodes = 10;
constexpr int kUnits = 14;  // more units than codes: some wait as spares
constexpr std::size_t kNoGrant = FunctionalUnitTable::kNone;

isa::FunctionCode code_of(int i) {
  return static_cast<isa::FunctionCode>(isa::fc::kUserBase + i);
}

/// What the pre-ready-set arbiter did in one cycle, re-derived from the
/// settled wires.
struct ScanOracle {
  bool round_robin;
  std::size_t next = 0;

  /// Checks the cycle just stepped; returns false on the first mismatch
  /// (details are reported through gtest).
  bool check(const Rtm& rtm, std::uint64_t writes_delta,
             std::uint64_t contention_delta, std::uint64_t cycle) {
    const FunctionalUnitTable& t = rtm.table();
    const std::size_t n = t.size();
    std::size_t grant = kNoGrant;
    std::uint64_t ready = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = round_robin ? (next + k) % n : k;
      const auto slot = static_cast<std::uint32_t>(i);
      if (t.slot_active(slot) && t.unit(slot).ports.data_ready.peek()) {
        ++ready;
        if (grant == kNoGrant) {
          grant = i;
        }
      }
    }
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      const auto slot = static_cast<std::uint32_t>(i);
      const bool active = t.slot_active(slot);
      const bool wire = active && t.unit(slot).ports.data_ready.peek();
      if (t.ready(i) != wire) {
        ADD_FAILURE() << "cycle " << cycle << ": ready bit of slot " << i
                      << " is " << t.ready(i) << ", wire says " << wire;
        ok = false;
      }
      if (active &&
          t.unit(slot).ports.data_acknowledge.peek() != (i == grant)) {
        ADD_FAILURE() << "cycle " << cycle << ": ack of slot " << i
                      << " disagrees with scan grant " << grant;
        ok = false;
      }
    }
    const std::uint64_t granted = grant == kNoGrant ? 0 : 1;
    if (t.ready_count() != ready || writes_delta != granted ||
        contention_delta != ready - granted) {
      ADD_FAILURE() << "cycle " << cycle << ": ready_count "
                    << t.ready_count() << " vs " << ready << ", writes "
                    << writes_delta << " vs " << granted << ", contention "
                    << contention_delta << " vs " << ready - granted;
      ok = false;
    }
    if (round_robin && grant != kNoGrant) {
      next = (grant + 1) % n;
    }
    return ok;
  }
};

/// A stream of ADDs spread over every code (attached or not), with a SYNC
/// every so often so drains can complete.
isa::Program churn_program(std::uint64_t seed, int length) {
  Xoshiro256 rng(seed);
  isa::Program p;
  p.emit_put(1, 1000);
  p.emit_put(2, 7);
  for (int n = 0; n < length; ++n) {
    isa::Instruction add;
    add.function = code_of(static_cast<int>(rng.below(kCodes)));
    add.variety = isa::arith::variety(isa::arith::Op::kAdd);
    add.src1 = 1;
    add.src2 = 2;
    add.dst1 = static_cast<isa::RegNum>(3 + rng.below(28));
    add.dst_flag = static_cast<isa::RegNum>(rng.below(8));
    p.emit(add);
    if (n % 97 == 96) {
      isa::Instruction sync;
      sync.function = isa::fc::kRtm;
      sync.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
      p.emit(sync);
    }
  }
  return p;
}

struct ChurnRun {
  std::map<std::string, std::uint64_t> counters;
  std::vector<msg::Response> responses;
  std::uint64_t cycles = 0;
  std::uint64_t swaps = 0;
  std::uint64_t max_ready = 0;
  bool oracle_ok = true;
};

ChurnRun run_churn(Simulator::Kernel kernel, bool round_robin,
                   std::uint64_t seed) {
  RtmConfig cfg;
  cfg.round_robin_arbiter = round_robin;
  RtmRig rig(cfg, fu::Skeleton::kMinimal, /*attach_units=*/false);
  rig.sim.set_kernel(kernel);
  Xoshiro256 rng(seed);

  // FSM units with mixed latencies and pipelined units with several
  // results queued, so completions pile up on the single write port.
  std::vector<std::unique_ptr<fu::FunctionalUnit>> units;
  for (int i = 0; i < kUnits; ++i) {
    fu::StatelessConfig ucfg;
    ucfg.width = cfg.word_width;
    ucfg.skeleton = i % 3 == 2 ? fu::Skeleton::kPipelined : fu::Skeleton::kFsm;
    ucfg.execute_cycles = static_cast<std::uint32_t>(i % 5);
    ucfg.pipeline_depth = 2 + static_cast<std::uint32_t>(i % 4);
    units.push_back(
        fu::make_arithmetic_unit(rig.sim, ucfg, "u" + std::to_string(i)));
  }
  // resident[c]: unit index attached under code c; spares are detached.
  std::vector<std::optional<int>> resident(kCodes);
  std::vector<bool> draining(kCodes, false);
  std::vector<int> spares;
  for (int i = 0; i < kUnits; ++i) {
    if (i < kCodes - 2) {
      rig.rtm.attach(code_of(i), *units[static_cast<std::size_t>(i)]);
      resident[static_cast<std::size_t>(i)] = i;
    } else {
      spares.push_back(i);
    }
  }

  const isa::Program program = churn_program(seed, 600);
  for (const isa::Word w : program.words()) {
    rig.prod.push(w);
  }

  ChurnRun out;
  ScanOracle oracle{round_robin};
  const sim::Counters& counters = rig.rtm.counters();
  std::uint64_t writes = counters.get("arbiter.unit_writes");
  std::uint64_t contention = counters.get("arbiter.contention");
  for (std::uint64_t cycle = 0; cycle < 200000; ++cycle) {
    rig.sim.step();
    const std::uint64_t w = counters.get("arbiter.unit_writes");
    const std::uint64_t c = counters.get("arbiter.contention");
    out.max_ready = std::max<std::uint64_t>(out.max_ready,
                                            rig.rtm.table().ready_count());
    if (!oracle.check(rig.rtm, w - writes, c - contention, cycle)) {
      out.oracle_ok = false;
      return out;
    }
    writes = w;
    contention = c;
    if (rig.prod.done() && rig.rtm.quiescent()) {
      break;
    }

    // Hot-swap churn between cycles, while other writes are in flight.
    const auto code = static_cast<std::size_t>(rng.below(kCodes));
    const isa::FunctionCode fc = code_of(static_cast<int>(code));
    switch (rng.below(8)) {
      case 0:  // start draining a resident unit
        if (resident[code] && !draining[code]) {
          rig.rtm.begin_detach(fc);
          draining[code] = true;
        }
        break;
      case 1:  // detach an idle unit outright (refused while busy)
        if (resident[code] && !draining[code]) {
          try {
            rig.rtm.detach(fc);
            spares.push_back(*resident[code]);
            resident[code].reset();
            ++out.swaps;
          } catch (const DetachBusy&) {
          }
        }
        break;
      case 2:  // attach a spare into the lowest free slot
        if (!resident[code] && !spares.empty()) {
          const std::size_t pick = rng.below(spares.size());
          const int unit = spares[pick];
          spares.erase(spares.begin() + static_cast<long>(pick));
          rig.rtm.attach(fc, *units[static_cast<std::size_t>(unit)]);
          resident[code] = unit;
          ++out.swaps;
        }
        break;
      default:
        break;
    }
    // Finish every drain that has completed.
    for (std::size_t d = 0; d < draining.size(); ++d) {
      const isa::FunctionCode dfc = code_of(static_cast<int>(d));
      if (draining[d] && rig.rtm.detach_drained(dfc)) {
        rig.rtm.finish_detach(dfc);
        draining[d] = false;
        spares.push_back(*resident[d]);
        resident[d].reset();
        ++out.swaps;
      }
    }
  }
  EXPECT_TRUE(rig.prod.done() && rig.rtm.quiescent())
      << "churn run did not drain";
  out.counters = counters.all();
  out.responses = rig.cons.received();
  out.cycles = rig.sim.cycle();
  return out;
}

class ReadySetChurn
    : public ::testing::TestWithParam<std::tuple<Simulator::Kernel, bool>> {};

TEST_P(ReadySetChurn, GrantsAcksAndContentionMatchTheSlotScan) {
  const auto [kernel, round_robin] = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChurnRun run = run_churn(kernel, round_robin, seed);
    ASSERT_TRUE(run.oracle_ok);
    // The churn really exercised what it claims to.
    EXPECT_GT(run.swaps, 20u);
    EXPECT_GE(run.max_ready, 2u);
    EXPECT_GT(run.counters.at("arbiter.contention"), 0u);

    // Bit-identical to the brute-force reference kernel.
    if (kernel != Simulator::Kernel::kBruteForce) {
      const ChurnRun ref =
          run_churn(Simulator::Kernel::kBruteForce, round_robin, seed);
      EXPECT_EQ(run.counters, ref.counters);
      EXPECT_EQ(run.responses, ref.responses);
      EXPECT_EQ(run.cycles, ref.cycles);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndPolicies, ReadySetChurn,
    ::testing::Combine(::testing::ValuesIn(Simulator::kAllKernels),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Simulator::Kernel, bool>>&
           pinfo) {
      std::string name = Simulator::kernel_name(std::get<0>(pinfo.param));
      name += std::get<1>(pinfo.param) ? "_round_robin" : "_fixed_priority";
      return name;
    });

TEST(ReadySet, DetachClearsTheBitAndStopsFollowingTheWire) {
  sim::Simulator sim;
  fu::StatelessConfig ucfg;
  ucfg.skeleton = fu::Skeleton::kFsm;
  auto a = fu::make_arithmetic_unit(sim, ucfg, "a");
  auto b = fu::make_arithmetic_unit(sim, ucfg, "b");
  FunctionalUnitTable t;
  EXPECT_EQ(t.attach(0x10, *a), 0u);
  EXPECT_EQ(t.attach(0x11, *b), 1u);
  EXPECT_EQ(t.next_ready(0), FunctionalUnitTable::kNone);

  b->ports.data_ready.set(true);
  EXPECT_TRUE(t.ready(1));
  EXPECT_EQ(t.next_ready(0), 1u);
  a->ports.data_ready.set(true);
  EXPECT_EQ(t.next_ready(0), 0u);
  EXPECT_EQ(t.next_ready(1), 1u);
  EXPECT_EQ(t.ready_count(), 2u);

  // Draining keeps the bit: in-flight writes still retire.
  t.set_draining(0x10, true);
  EXPECT_TRUE(t.ready(0));

  // Detach clears it; the detached unit's wire no longer reaches the slot.
  t.detach(0x10);
  EXPECT_FALSE(t.ready(0));
  EXPECT_EQ(t.ready_count(), 1u);
  a->ports.data_ready.set(false);
  a->ports.data_ready.set(true);
  EXPECT_FALSE(t.ready(0));
  EXPECT_EQ(t.next_ready(0), 1u);

  // Reattached elsewhere, the unit brings its current wire value along.
  t.detach(0x11);
  EXPECT_EQ(t.attach(0x12, *a), 0u);
  EXPECT_TRUE(t.ready(0));
  EXPECT_FALSE(t.ready(1));
  EXPECT_EQ(t.next_ready(1), 0u);  // wraps past the end
  EXPECT_THROW(t.attach(0x13, *a), SimError);  // one table per unit
}

}  // namespace
}  // namespace fpgafu::rtm

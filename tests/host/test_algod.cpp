#include "host/algod.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "fu/stateless_units.hpp"
#include "host/coprocessor.hpp"
#include "host/farm.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "util/rng.hpp"

namespace fpgafu::host {
namespace {

using isa::Assembler;
using msg::Response;

/// A System with no built-in units: every function code on it is served
/// through the algorithm-on-demand manager (or not at all).
top::SystemConfig bare_system() {
  top::SystemConfig sc;
  sc.with_arithmetic = false;
  sc.with_logic = false;
  sc.with_shift = false;
  sc.with_muldiv = false;
  sc.with_float = false;
  sc.with_trig = false;
  return sc;
}

/// The stock unit of `code`, built as top::System builds it, so images are
/// declared over codes the ReferenceModel knows the semantics of.
std::unique_ptr<fu::FunctionalUnit> make_unit_for(sim::Simulator& sim,
                                                  isa::FunctionCode code) {
  return fu::make_stock_unit(sim, code, fu::StatelessConfig{});
}

AlgorithmImage image_of(const std::string& name, isa::FunctionCode code,
                        std::uint64_t load_cycles) {
  AlgorithmImage img;
  img.name = name;
  img.codes = {code};
  img.load_cycles = load_cycles;
  img.factory = make_unit_for;
  return img;
}

/// The six-image catalogue the multi-tenant tests schedule over, with
/// deliberately unequal load costs so the cost-aware policy has something
/// to be aware of.
std::vector<AlgorithmImage> catalogue() {
  return {image_of("arith", isa::fc::kArith, 100),
          image_of("logic", isa::fc::kLogic, 200),
          image_of("shift", isa::fc::kShift, 300),
          image_of("muldiv", isa::fc::kMulDiv, 400),
          image_of("float", isa::fc::kFloat, 500),
          image_of("trig", isa::fc::kTrig, 600)};
}

/// A self-contained program exercising exactly the given images: writes
/// every register it reads, so a fresh ReferenceModel predicts its
/// responses regardless of shard placement or earlier tenants.
isa::Program program_for(const std::vector<std::string>& images,
                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string src;
  src += "PUT r1, #" + std::to_string(rng.below(1u << 20)) + "\n";
  src += "PUT r2, #" + std::to_string(1 + rng.below(1u << 10)) + "\n";
  for (const std::string& name : images) {
    if (name == "arith") {
      src += "ADD r3, r1, r2\nGET r3\n";
    } else if (name == "logic") {
      src += "XOR r4, r1, r2\nGET r4\n";
    } else if (name == "shift") {
      src += "SHR r5, r1, r2\nGET r5\n";
    } else if (name == "muldiv") {
      src += "MUL r6, r1, r2\nGET r6\n";
    } else if (name == "float") {
      src += "FMUL r7, r1, r2\nGET r7\n";
    } else if (name == "trig") {
      src += "SIN r3, r1\nGET r3\n";
    }
  }
  return Assembler::assemble(src);
}

std::vector<msg::Response> reference_run(const isa::Program& p) {
  return ReferenceModel(top::SystemConfig{}.rtm).run(p);
}

// -- FuManager unit tests -----------------------------------------------------

TEST(Algod, MissLoadsHitReusesAndCountersTrack) {
  top::System sys(bare_system());
  Coprocessor copro(sys);
  FuManagerConfig mcfg;
  mcfg.slots = 2;
  FuManager mgr(copro, mcfg);
  mgr.register_image(image_of("arith", isa::fc::kArith, 250));
  mgr.register_image(image_of("logic", isa::fc::kLogic, 250));

  EXPECT_FALSE(mgr.resident("arith"));
  const std::uint64_t before = sys.simulator().cycle();
  mgr.ensure_resident("arith");
  EXPECT_TRUE(mgr.resident("arith"));
  // The load latency is charged on the simulated clock, not host-side.
  EXPECT_GE(sys.simulator().cycle() - before, 250u);
  EXPECT_EQ(mgr.counters().get("algod.misses"), 1u);
  EXPECT_EQ(mgr.counters().get("algod.loads"), 1u);
  EXPECT_GE(mgr.counters().get("algod.load_cycles"), 250u);

  // A hit is free: no clock movement, no load.
  const std::uint64_t after_load = sys.simulator().cycle();
  mgr.ensure_resident("arith");
  EXPECT_EQ(sys.simulator().cycle(), after_load);
  EXPECT_EQ(mgr.counters().get("algod.hits"), 1u);
  EXPECT_EQ(mgr.counters().get("algod.loads"), 1u);

  // And the loaded unit actually serves instructions.
  auto r = copro.call(Assembler::assemble(R"(
    PUTI r1, 6
    PUTI r2, 7
    ADD r3, r1, r2
    GET r3
  )"));
  EXPECT_EQ(r[0].payload, 13u);
}

TEST(Algod, EvictionSwapsUnderSlotPressure) {
  top::System sys(bare_system());
  Coprocessor copro(sys);
  FuManagerConfig mcfg;
  mcfg.slots = 1;
  FuManager mgr(copro, mcfg);
  mgr.register_image(image_of("arith", isa::fc::kArith, 100));
  mgr.register_image(image_of("logic", isa::fc::kLogic, 100));

  mgr.ensure_resident("arith");
  mgr.ensure_resident("logic");  // evicts arith: one slot
  EXPECT_FALSE(mgr.resident("arith"));
  EXPECT_TRUE(mgr.resident("logic"));
  EXPECT_EQ(mgr.counters().get("algod.evictions"), 1u);

  // Swap back and forth; the units are cached (no re-construction), but
  // every reload pays the modelled latency again.
  const std::uint64_t before = sys.simulator().cycle();
  mgr.ensure_resident("arith");
  EXPECT_GE(sys.simulator().cycle() - before, 100u);
  EXPECT_EQ(mgr.counters().get("algod.evictions"), 2u);
  auto r = copro.call(
      Assembler::assemble("PUTI r1, 3\nPUTI r2, 4\nADD r3, r1, r2\nGET r3"));
  EXPECT_EQ(r[0].payload, 7u);
}

TEST(Algod, DeclaredButNotLoadedIsUnavailableNotUnknown) {
  top::System sys(bare_system());
  Coprocessor copro(sys);
  FuManagerConfig mcfg;
  mcfg.slots = 1;
  FuManager mgr(copro, mcfg);
  mgr.register_image(image_of("arith", isa::fc::kArith, 100));

  // Registered (never loaded): typed retryable error.
  auto r1 = copro.call(Assembler::assemble("ADD r3, r1, r2\nSYNC"));
  EXPECT_EQ(r1[0].type, Response::Type::kError);
  EXPECT_EQ(r1[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnitUnavailable));
  // Unregistered code: permanent unknown-function error.
  auto r2 = copro.call(Assembler::assemble("MUL r3, r1, r2\nSYNC"));
  EXPECT_EQ(r2[0].code,
            static_cast<std::uint8_t>(msg::ErrorCode::kUnknownFunction));
  // After the retryable error, loading and retrying succeeds.
  mgr.ensure_resident("arith");
  auto r3 = copro.call(
      Assembler::assemble("PUTI r1, 2\nPUTI r2, 9\nADD r3, r1, r2\nGET r3"));
  EXPECT_EQ(r3[0].payload, 11u);
}

TEST(Algod, LruEvictsLeastRecentCostAwareKeepsExpensive) {
  // Same access sequence under both policies; they must pick different
  // victims.  A is dirt cheap to reload, B is expensive; both are touched,
  // A most recently.
  const auto sequence = [](FuManager& mgr) {
    mgr.ensure_resident("cheap");
    mgr.ensure_resident("dear");
    mgr.ensure_resident("cheap");   // cheap is now the most recent
    mgr.ensure_resident("third");   // forces one eviction
  };

  top::System s1(bare_system());
  Coprocessor c1(s1);
  FuManagerConfig lru_cfg;
  lru_cfg.slots = 2;
  lru_cfg.cost_aware = false;
  FuManager lru(c1, lru_cfg);
  lru.register_image(image_of("cheap", isa::fc::kArith, 10));
  lru.register_image(image_of("dear", isa::fc::kFloat, 10000));
  lru.register_image(image_of("third", isa::fc::kLogic, 10));
  sequence(lru);
  // LRU ignores cost: evicts `dear` (least recently touched).
  EXPECT_TRUE(lru.resident("cheap"));
  EXPECT_FALSE(lru.resident("dear"));

  top::System s2(bare_system());
  Coprocessor c2(s2);
  FuManagerConfig cost_cfg;
  cost_cfg.slots = 2;
  cost_cfg.cost_aware = true;
  FuManager cost(c2, cost_cfg);
  cost.register_image(image_of("cheap", isa::fc::kArith, 10));
  cost.register_image(image_of("dear", isa::fc::kFloat, 10000));
  cost.register_image(image_of("third", isa::fc::kLogic, 10));
  sequence(cost);
  // Cost-aware keeps the expensive bitstream despite its age.
  EXPECT_FALSE(cost.resident("cheap"));
  EXPECT_TRUE(cost.resident("dear"));
}

TEST(Algod, CostAwareAgesOutStaleExpensiveImages) {
  // GreedyDual aging regression: the eviction level L rises to the evicted
  // credit, so an expensive image that stops being touched is overtaken by
  // a stream of fresh cheap ones instead of squatting on its slot forever.
  // Under the pre-aging policy (credit = touch_tick + cost, ticks +1 per
  // touch) `dear` would outrank the cheap pair for ~500 touches.
  top::System sys(bare_system());
  Coprocessor copro(sys);
  FuManagerConfig mcfg;
  mcfg.slots = 2;
  mcfg.cost_aware = true;
  FuManager mgr(copro, mcfg);
  mgr.register_image(image_of("dear", isa::fc::kFloat, 500));
  mgr.register_image(image_of("a", isa::fc::kArith, 100));
  mgr.register_image(image_of("b", isa::fc::kLogic, 100));

  mgr.ensure_resident("dear");  // credit 500; never touched again
  mgr.ensure_resident("a");     // credit 100
  // Each alternation evicts the other cheap image and lifts L by its
  // credit: b@200, a@300, b@400, a@500 — sixth load ties dear at 500 and
  // the touch-tick tie-break evicts the stale one.
  for (const char* name : {"b", "a", "b", "a", "b"}) {
    mgr.ensure_resident(name);
  }
  EXPECT_FALSE(mgr.resident("dear")) << "stale expensive image must age out";
  EXPECT_TRUE(mgr.resident("a"));
  EXPECT_TRUE(mgr.resident("b"));
}

TEST(Algod, CostAwareDegeneratesToLruAtEqualCosts) {
  // With uniform costs, credits tie and the touch-tick tie-break must
  // reproduce LRU's exact victim order.
  top::System sys(bare_system());
  Coprocessor copro(sys);
  FuManagerConfig mcfg;
  mcfg.slots = 2;
  mcfg.cost_aware = true;
  FuManager mgr(copro, mcfg);
  mgr.register_image(image_of("x", isa::fc::kArith, 100));
  mgr.register_image(image_of("y", isa::fc::kLogic, 100));
  mgr.register_image(image_of("z", isa::fc::kShift, 100));

  mgr.ensure_resident("x");
  mgr.ensure_resident("y");
  mgr.ensure_resident("x");  // x is now the most recent
  mgr.ensure_resident("z");  // must evict y, the least recently touched
  EXPECT_TRUE(mgr.resident("x"));
  EXPECT_FALSE(mgr.resident("y"));
  EXPECT_TRUE(mgr.resident("z"));
}

TEST(Algod, CoScheduledImagesAreNotVictimsOfEachOther) {
  top::System sys(bare_system());
  Coprocessor copro(sys);
  FuManagerConfig mcfg;
  mcfg.slots = 2;
  mcfg.cost_aware = false;
  FuManager mgr(copro, mcfg);
  mgr.register_image(image_of("arith", isa::fc::kArith, 50));
  mgr.register_image(image_of("logic", isa::fc::kLogic, 50));
  mgr.register_image(image_of("shift", isa::fc::kShift, 50));

  mgr.ensure_resident_all({"arith", "logic"});
  EXPECT_TRUE(mgr.resident("arith"));
  EXPECT_TRUE(mgr.resident("logic"));
  EXPECT_FALSE(mgr.resident("shift"));
  // {logic, shift}: shift's load must evict arith, never its co-scheduled
  // peer logic.
  mgr.ensure_resident_all({"logic", "shift"});
  EXPECT_TRUE(mgr.resident("logic"));
  EXPECT_TRUE(mgr.resident("shift"));
  EXPECT_FALSE(mgr.resident("arith"));

  // A set that cannot fit the budget is refused (typed SimError), with the
  // resident set untouched.
  EXPECT_THROW(mgr.ensure_resident_all({"arith", "logic", "shift"}),
               SimError);
  EXPECT_TRUE(mgr.resident("logic"));
  EXPECT_TRUE(mgr.resident("shift"));
}

// -- Farm integration ---------------------------------------------------------

TEST(AlgodFarm, SessionsRouteByAffinityAndSwapOnDemand) {
  FarmConfig fc;
  fc.shards = 2;
  fc.system = bare_system();
  fc.fu_images = catalogue();
  fc.fu_slots = 2;
  Farm farm(fc);

  const Farm::SessionId a1 = farm.create_session({"arith"});
  const Farm::SessionId f1 = farm.create_session({"float"});
  const Farm::SessionId a2 = farm.create_session({"arith"});
  // Affinity: the two arith tenants share a shard; the float tenant got
  // the other one (load balance at zero overlap).
  EXPECT_EQ(farm.shard_of(a1), farm.shard_of(a2));
  EXPECT_NE(farm.shard_of(a1), farm.shard_of(f1));

  const isa::Program pa = program_for({"arith"}, 7);
  const isa::Program pf = program_for({"float"}, 8);
  EXPECT_EQ(farm.submit(a1, pa).get(), reference_run(pa));
  EXPECT_EQ(farm.submit(f1, pf).get(), reference_run(pf));
  EXPECT_EQ(farm.submit(a2, pa).get(), reference_run(pa));

  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
  EXPECT_GE(totals.get("algod.loads"), 2u);
  EXPECT_GE(totals.get("algod.hits"), 1u);  // a2 reused a1's image
}

TEST(AlgodFarm, UndeclaredCodeFailsTypedAndRetriesOnDeclaringSession) {
  FarmConfig fc;
  fc.shards = 1;
  fc.system = bare_system();
  fc.fu_images = catalogue();
  fc.fu_slots = 1;
  Farm farm(fc);

  const Farm::SessionId arith_only = farm.create_session({"arith"});
  // Warm the shard with the declared image.
  const isa::Program ok = program_for({"arith"}, 21);
  EXPECT_EQ(farm.submit(arith_only, ok).get(), reference_run(ok));

  // The same session now uses a code it never declared: the muldiv image
  // is registered (so the error is the retryable kUnitUnavailable, not
  // unknown-function) but not resident, and this session does not request
  // it.  The job fails typed.
  const isa::Program probe = program_for({"muldiv"}, 22);
  auto fut = farm.submit(arith_only, probe);
  try {
    fut.get();
    FAIL() << "expected FarmError{kUnitUnavailable}";
  } catch (const FarmError& e) {
    EXPECT_EQ(e.kind(), FarmError::Kind::kUnitUnavailable);
  }
  // Bounded retry on a session that declares the image: succeeds.
  const Farm::SessionId muldiv_ok = farm.create_session({"muldiv"});
  EXPECT_EQ(farm.submit(muldiv_ok, probe).get(), reference_run(probe));

  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.shard_resets"), 0u)
      << "a typed unit-unavailable failure must not reset the shard";
  EXPECT_GE(totals.get("algod.evictions"), 1u);
}

/// A catalogue that every shard's register_image would reject must be
/// refused by the Farm constructor, on the caller's thread — not accepted
/// and then failed job by job from shards that cannot construct.
TEST(AlgodFarm, ConflictingCatalogueIsRejectedOnTheConstructingThread) {
  // The default SystemConfig attaches the arithmetic unit itself, so an
  // image on kArith collides with it.
  FarmConfig attached;
  attached.fu_images = {image_of("arith", isa::fc::kArith, 100)};
  EXPECT_THROW(Farm{attached}, SimError);

  // Two images declaring one code.
  FarmConfig shared;
  shared.system = bare_system();
  shared.fu_images = {image_of("arith", isa::fc::kArith, 100),
                      image_of("arith2", isa::fc::kArith, 100)};
  EXPECT_THROW(Farm{shared}, SimError);
}

/// An inline managed farm stays reference-exact.  At window 4 a kick-off
/// job's callback queues a mixed-demand batch, so the inline shard step has
/// several jobs to issue at once: every fourth needs the cold image, and
/// its swap must wait for an empty window.
TEST(AlgodFarm, InlineManagedFarmMatchesReference) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("window " + std::to_string(window));
    FarmConfig fc;
    fc.shards = 0;  // inline: no threads
    fc.system = bare_system();
    fc.transport.window = window;
    fc.fu_images = catalogue();
    fc.fu_slots = 2;  // logic+shift resident means trig forces an eviction
    Farm farm(fc);
    const Farm::SessionId hot = farm.create_session({"logic", "shift"});
    const Farm::SessionId cold = farm.create_session({"trig"});
    std::vector<isa::Program> programs;
    for (std::uint64_t seed = 40; seed < 52; ++seed) {
      programs.push_back(program_for(seed % 4 == 1
                                         ? std::vector<std::string>{"trig"}
                                         : std::vector<std::string>{"logic",
                                                                    "shift"},
                                     seed));
    }
    std::vector<std::future<std::vector<msg::Response>>> futures;
    const isa::Program kickoff = program_for({"logic", "shift"}, 39);
    std::vector<msg::Response> kicked;
    farm.submit_async(hot, kickoff,
                      [&](std::vector<msg::Response> rs, std::exception_ptr) {
                        kicked = std::move(rs);
                        for (std::size_t i = 0; i < programs.size(); ++i) {
                          futures.push_back(farm.submit(
                              i % 4 == 1 ? cold : hot, programs[i]));
                        }
                      });
    EXPECT_EQ(kicked, reference_run(kickoff));
    ASSERT_EQ(futures.size(), programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
      EXPECT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
    }
    farm.shutdown();  // counters are published amortised; exact after shutdown
    const sim::Counters totals = farm.counters();
    EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
    EXPECT_GE(totals.get("algod.loads"), 3u);
    EXPECT_GE(totals.get("algod.hits"), 1u);
    EXPECT_GT(totals.get("algod.evictions"), 0u) << "swaps must have happened";
  }
}

TEST(AlgodFarm, CoalescedFramesSwapImagesOnlyAtFrameBoundaries) {
  // Mixed-demand sessions on a threaded shard at window 4: jobs that share
  // a resident set ride one window, and a job needing a swap must wait for
  // the window to empty and still complete correctly after the swap.
  // Every response stays bit-identical to the reference.
  FarmConfig fc;
  fc.shards = 1;
  fc.system = bare_system();
  fc.transport.window = 4;
  fc.fu_images = catalogue();
  fc.fu_slots = 2;  // arith+logic resident means trig forces an eviction
  Farm farm(fc);
  const Farm::SessionId hot = farm.create_session({"arith", "logic"});
  const Farm::SessionId cold = farm.create_session({"trig"});

  std::vector<isa::Program> programs;
  std::vector<std::future<std::vector<msg::Response>>> futures;
  for (std::uint64_t seed = 70; seed < 82; ++seed) {
    // Every 4th job demands the cold image, forcing a swap in the middle
    // of what would otherwise be one full window after another.
    const bool is_cold = seed % 4 == 1;
    programs.push_back(program_for(
        is_cold ? std::vector<std::string>{"trig"}
                : std::vector<std::string>{"arith", "logic"},
        seed));
    futures.push_back(farm.submit(is_cold ? cold : hot, programs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].get(), reference_run(programs[i])) << "job " << i;
  }
  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
  EXPECT_GT(totals.get("algod.evictions"), 0u) << "swaps must have happened";
}

// -- Multi-tenant soak --------------------------------------------------------

/// Tenant count for the soak; CI exports FPGAFU_ALGOD_TENANTS to scale it.
/// The acceptance bar is >= 200.
std::size_t algod_tenants() {
  if (const char* env = std::getenv("FPGAFU_ALGOD_TENANTS")) {
    const long n = std::atol(env);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  return 200;
}

/// The acceptance soak: hundreds of tenants with skewed, phase-shifting
/// image demand over a slot budget far below the union of their needs.
/// Every job must stay bit-identical to a fresh ReferenceModel; undeclared
/// probes must fail typed and succeed on one bounded retry; no shard may
/// wedge or reset; and the replacement machinery must demonstrably cycle
/// (nonzero hits, misses and evictions).
TEST(AlgodSoak, MultiTenantSkewedShiftingMixStaysReferenceCorrect) {
  const std::size_t tenants = algod_tenants();
  const std::vector<std::string> names = {"arith",  "logic", "shift",
                                          "muldiv", "float", "trig"};
  FarmConfig fc;
  fc.shards = 4;
  fc.system = bare_system();
  fc.transport.window = 4;
  fc.fu_images = catalogue();
  fc.fu_slots = 2;  // union of demands is 6 codes: constant pressure
  // Room for every job at once: the workers are held (below) until all of
  // them are queued.
  fc.queue_capacity = tenants * 3;
  Farm farm(fc);

  // Hold each shard's worker in the callback of a first, image-free job
  // until every soak job is queued, so the jobs really are all in flight at
  // once whatever the speed of the workers against this thread.  Plain
  // sessions are placed round-robin, one per shard.
  std::promise<void> gate;
  std::shared_future<void> all_queued = gate.get_future().share();
  std::vector<std::future<void>> held;
  for (std::size_t s = 0; s < fc.shards; ++s) {
    auto done = std::make_shared<std::promise<void>>();
    held.push_back(done->get_future());
    farm.submit_async(farm.create_session(), program_for({}, s),
                      [all_queued, done](std::vector<msg::Response>,
                                         std::exception_ptr) {
                        all_queued.wait();
                        done->set_value();
                      });
  }

  struct Tenant {
    Farm::SessionId session;
    std::vector<std::string> required;
  };
  Xoshiro256 rng(0xa190d);
  std::vector<Tenant> roster;
  roster.reserve(tenants);
  const std::size_t phases = 4;
  for (std::size_t i = 0; i < tenants; ++i) {
    // Skewed, shifting mix: each phase of the tenant sequence favours a
    // different pair of images (80% of picks), with a uniform tail.
    const std::size_t phase = i * phases / tenants;
    auto pick = [&]() -> std::string {
      if (rng.below(10) < 8) {
        return names[(phase * 2 + rng.below(2)) % names.size()];
      }
      return names[rng.below(static_cast<std::uint32_t>(names.size()))];
    };
    std::vector<std::string> required = {pick()};
    if (rng.below(2) == 0) {
      const std::string second = pick();
      if (second != required[0]) {
        required.push_back(second);
      }
    }
    roster.push_back({farm.create_session(required), std::move(required)});
  }

  // Two jobs per tenant, all in flight across the farm at once.
  struct Pending {
    std::future<std::vector<msg::Response>> future;
    isa::Program program;
    std::size_t tenant;
  };
  std::vector<Pending> pending;
  pending.reserve(tenants * 2);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      isa::Program p =
          program_for(roster[i].required, 0x5eed + i * 7 + 1000 * j);
      auto fut = farm.submit(roster[i].session, p);
      pending.push_back({std::move(fut), std::move(p), i});
    }
  }
  // Every 16th tenant also probes a code it never declared — the eviction
  // race surfaced as a typed, retryable error.
  struct Probe {
    std::future<std::vector<msg::Response>> future;
    isa::Program program;
    std::string image;
  };
  std::vector<Probe> probes;
  for (std::size_t i = 0; i < roster.size(); i += 16) {
    std::string undeclared;
    for (const std::string& n : names) {
      if (std::find(roster[i].required.begin(), roster[i].required.end(),
                    n) == roster[i].required.end()) {
        undeclared = n;
        break;
      }
    }
    if (undeclared.empty()) {
      continue;
    }
    isa::Program p = program_for({undeclared}, 0xbeef + i);
    auto fut = farm.submit(roster[i].session, p);
    probes.push_back({std::move(fut), std::move(p), undeclared});
  }
  gate.set_value();
  for (std::future<void>& h : held) {
    h.get();
  }

  for (Pending& p : pending) {
    ASSERT_EQ(p.future.get(), reference_run(p.program))
        << "tenant " << p.tenant << " required set size "
        << roster[p.tenant].required.size();
  }
  std::size_t probe_failures = 0;
  for (Probe& p : probes) {
    try {
      // The undeclared image may have been resident by luck; then the job
      // simply succeeds and must still match the reference.
      EXPECT_EQ(p.future.get(), reference_run(p.program));
    } catch (const FarmError& e) {
      ASSERT_EQ(e.kind(), FarmError::Kind::kUnitUnavailable);
      ++probe_failures;
      // Bounded retry: one resubmission on a declaring session succeeds.
      const Farm::SessionId retry_on = farm.create_session({p.image});
      EXPECT_EQ(farm.submit(retry_on, p.program).get(),
                reference_run(p.program));
    }
  }

  farm.shutdown();
  const sim::Counters totals = farm.counters();
  EXPECT_EQ(totals.get("farm.shard_resets"), 0u) << "zero wedged shards";
  EXPECT_EQ(totals.get("farm.jobs_failed"), probe_failures)
      << "only undeclared probes may fail, and only typed";
  // The soak must actually exercise the replacement machinery.
  EXPECT_GT(totals.get("algod.hits"), 0u);
  EXPECT_GT(totals.get("algod.misses"), 0u);
  EXPECT_GT(totals.get("algod.evictions"), 0u);
  EXPECT_GT(totals.get("algod.load_cycles"), 0u);

  // Job latency (simulated cycles, enqueue -> completion) must have a
  // bounded tail: with round-robin fairness and frame-boundary-only swaps
  // no tenant's job may wait pathologically longer than the median.  The
  // 50x bound is deliberately loose — FIFO drain of this load predicts
  // p99/p50 of roughly 2 — so it only catches real starvation.
  const LatencyPercentiles lat =
      latency_percentiles(farm.job_latency_samples());
  EXPECT_GE(lat.samples, pending.size())
      << "every soak job must contribute a latency sample";
  EXPECT_GT(lat.p50, 0u);
  EXPECT_LE(lat.p50, lat.p95);
  EXPECT_LE(lat.p95, lat.p99);
  EXPECT_LE(lat.p99, lat.p50 * 50) << "latency tail unbounded: p99 "
                                   << lat.p99 << " vs p50 " << lat.p50;
}

}  // namespace
}  // namespace fpgafu::host

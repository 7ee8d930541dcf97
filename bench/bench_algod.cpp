// Experiment E15: algorithm-on-demand slot-cache behaviour under
// multi-tenant load.
//
// The paper notes the functional-unit approach "lends itself to dynamic
// reconfiguration": algorithm circuits are swapped through a bounded set of
// physical FU slots instead of synthesised into one monolithic design.
// host::FuManager models that as a software-managed cache — this bench
// sweeps the slot budget across a fixed six-image catalogue and a skewed
// tenant mix, reporting the cache counters (hits / misses / evictions) and
// the resulting hit rate alongside jobs/s.  Small budgets force constant
// replacement (nonzero evictions); budgets that fit the whole catalogue
// converge to a hit rate near 1 after the cold loads.  CI's perf-smoke step
// asserts both ends of that curve from the JSON artifact.
//
// Two more axes: the victim rule (LRU, or cost-aware GreedyDual), over
// images with deliberately unequal load_cycles so the two can disagree;
// and where the hot set sits — on the two images cheapest to reload, or on
// the two dearest.  Each row sums kDraws tenant mixes, seeded from the
// slot budget and the draw index only, so both victim rules see the same
// tenants.  Every row runs a fixed iteration count and starts each
// iteration from one kick-off job per draw whose callback submits the
// rest, so its counters and latency percentiles are deterministic.  Every
// job's responses are checked bit-identically against
// host::ReferenceModel.

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fu/stateless_units.hpp"
#include "host/algod.hpp"
#include "host/farm.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "util/rng.hpp"

namespace {

using namespace fpgafu;

/// Factory covering the six stateless case-study units, so images are
/// declared over codes the ReferenceModel knows the semantics of.
std::unique_ptr<fu::FunctionalUnit> make_unit_for(sim::Simulator& sim,
                                                  isa::FunctionCode code) {
  fu::StatelessConfig ucfg;
  ucfg.width = 32;
  switch (code) {
    case isa::fc::kArith:
      return fu::make_arithmetic_unit(sim, ucfg);
    case isa::fc::kLogic:
      return fu::make_logic_unit(sim, ucfg);
    case isa::fc::kShift:
      return fu::make_shift_unit(sim, ucfg);
    case isa::fc::kMulDiv:
      ucfg.skeleton = fu::Skeleton::kFsm;
      ucfg.execute_cycles = 0;
      return fu::make_muldiv_unit(sim, ucfg);
    case isa::fc::kFloat:
      return fu::make_fp32_unit(sim, ucfg);
    case isa::fc::kTrig:
      ucfg.skeleton = fu::Skeleton::kFsm;
      ucfg.execute_cycles = 0;
      return fu::make_trig_unit(sim, ucfg);
    default:
      return nullptr;
  }
}

host::AlgorithmImage image_of(const std::string& name, isa::FunctionCode code,
                              std::uint64_t load_cycles) {
  host::AlgorithmImage img;
  img.name = name;
  img.codes = {code};
  img.load_cycles = load_cycles;
  img.factory = make_unit_for;
  return img;
}

/// Six single-code images with unequal reload costs (the cost-aware policy
/// needs a spread to be aware of).
std::vector<host::AlgorithmImage> catalogue() {
  return {image_of("arith", isa::fc::kArith, 100),
          image_of("logic", isa::fc::kLogic, 200),
          image_of("shift", isa::fc::kShift, 300),
          image_of("muldiv", isa::fc::kMulDiv, 400),
          image_of("float", isa::fc::kFloat, 500),
          image_of("trig", isa::fc::kTrig, 600)};
}

/// In catalogue order: from cheapest to dearest to reload.
const char* const kImageNames[] = {"arith",  "logic", "shift",
                                   "muldiv", "float", "trig"};

/// All units this bench schedules have no FU-frame codes outside the
/// manager: the Systems start bare so the manager owns every code.
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

/// Self-contained job touching exactly `images`: writes every register it
/// reads, so a fresh ReferenceModel predicts its responses regardless of
/// what earlier tenants left in the shard's register file.
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
  return isa::Assembler::assemble(src);
}

struct Tenant {
  host::Farm::SessionId session = 0;
  isa::Program program;
  std::vector<msg::Response> expected;
};

constexpr std::size_t kTenants = 24;
constexpr std::size_t kJobsPerTenantPerIteration = 2;
constexpr std::size_t kJobsPerIteration =
    kTenants * kJobsPerTenantPerIteration;
/// Tenant mixes summed into every row.
constexpr std::size_t kDraws = 12;
/// Iterations per row; each iteration runs kJobsPerIteration jobs on every
/// draw.
constexpr int kIterations = 25;

/// Skewed required-set draw: 80% of picks land on a two-image hot set; the
/// rest wander the four-image cold tail, which is what forces replacement
/// once the budget is smaller than the catalogue.  The hot set is the two
/// images cheapest to reload, or (`dear_hot`) the two dearest.
std::vector<std::string> draw_required(Xoshiro256& rng, bool dear_hot) {
  const auto pick = [&] {
    const std::size_t i = rng.chance(4, 5) ? rng.below(2) : 2 + rng.below(4);
    return kImageNames[dear_hot ? 5 - i : i];
  };
  std::vector<std::string> required = {pick()};
  if (rng.chance(1, 3)) {
    const std::string second = pick();
    if (second != required.front()) {
      required.push_back(second);
    }
  }
  return required;
}

/// One tenant mix on its own one-shard farm, so every tenant of the mix
/// contends for the same manager.
struct Draw {
  std::unique_ptr<host::Farm> farm;
  std::vector<Tenant> tenants;
};

Draw make_draw(const host::FarmConfig& fc, std::size_t slots, bool dear_hot,
               std::size_t index) {
  Draw d;
  d.farm = std::make_unique<host::Farm>(fc);
  Xoshiro256 rng(0xa190d'0000 + 16 * slots + index);
  for (std::size_t t = 0; t < kTenants; ++t) {
    Tenant tenant;
    const std::vector<std::string> required = draw_required(rng, dear_hot);
    tenant.session = d.farm->create_session(required);
    tenant.program = program_for(required, rng.next());
    tenant.expected = host::ReferenceModel(fc.system.rtm).run(tenant.program);
    d.tenants.push_back(std::move(tenant));
  }
  return d;
}

/// Cache counters, simulated cycles per job and jobs/s at a slot budget of
/// `state.range(0)`, victim rule `state.range(1)` (0 = LRU, 1 = cost-aware)
/// and hot set `state.range(2)` (0 = cheap, 1 = dear), summed over kDraws
/// tenant mixes.
void BM_AlgodSlotSweep(benchmark::State& state) {
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  const bool cost_aware = state.range(1) != 0;
  const bool dear_hot = state.range(2) != 0;
  host::FarmConfig fc;
  fc.shards = 1;
  fc.system = bare_system();
  fc.transport.window = 4;
  fc.queue_capacity = 2 * kJobsPerIteration;
  fc.fu_images = catalogue();
  fc.fu_slots = slots;
  fc.fu_cost_aware = cost_aware;
  std::vector<Draw> draws;
  for (std::size_t i = 0; i < kDraws; ++i) {
    draws.push_back(make_draw(fc, slots, dear_hot, i));
  }

  std::mutex m;
  std::condition_variable cv;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    std::size_t done = 0;
    std::size_t wrong = 0;
    const auto on_done = [&](const Tenant& t) {
      return [&, want = &t.expected](std::vector<msg::Response> rs,
                                     std::exception_ptr err) {
        std::lock_guard<std::mutex> lk(m);
        if (err || rs != *want) {
          ++wrong;
        }
        if (++done == kDraws * kJobsPerIteration) {
          cv.notify_one();
        }
      };
    };
    // One kick-off job per draw; its completion callback submits the rest
    // on the worker thread, so every arrival is keyed to the shard clock.
    for (Draw& d : draws) {
      const Tenant& first = d.tenants[0];
      d.farm->submit_async(
          first.session, first.program,
          [&, &d = d](std::vector<msg::Response> rs, std::exception_ptr err) {
            for (std::size_t i = 1; i < kJobsPerIteration; ++i) {
              const Tenant& t = d.tenants[i % kTenants];
              d.farm->submit_async(t.session, t.program, on_done(t));
            }
            on_done(d.tenants[0])(std::move(rs), err);
          });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kDraws * kJobsPerIteration; });
    if (wrong != 0) {
      state.SkipWithError("algod response diverged from ReferenceModel");
      return;
    }
    jobs += done;
  }

  sim::Counters totals;
  std::vector<std::uint64_t> latencies;
  for (Draw& d : draws) {
    d.farm->shutdown();  // reads after this return the final snapshot
    totals.merge(d.farm->counters());
    const std::vector<std::uint64_t> samples = d.farm->job_latency_samples();
    latencies.insert(latencies.end(), samples.begin(), samples.end());
  }
  const auto counter = [&](const char* key) {
    return static_cast<double>(totals.get(key));
  };
  const double hits = counter("algod.hits");
  const double misses = counter("algod.misses");
  const double iterations = static_cast<double>(state.iterations());
  const host::LatencyPercentiles lat =
      host::latency_percentiles(std::move(latencies));
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["slots"] = static_cast<double>(slots);
  state.counters["cost_aware"] = cost_aware ? 1.0 : 0.0;
  state.counters["dear_hot"] = dear_hot ? 1.0 : 0.0;
  state.counters["draws"] = static_cast<double>(kDraws);
  state.counters["hits"] = hits;
  state.counters["misses"] = misses;
  state.counters["hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  state.counters["misses_per_iter"] = misses / iterations;
  state.counters["evictions"] = counter("algod.evictions");
  state.counters["loads"] = counter("algod.loads");
  state.counters["load_cycles"] = counter("algod.load_cycles");
  state.counters["drain_cycles"] = counter("algod.drain_cycles");
  // Simulated shard cycles per job, summed over the draws: what the victim
  // rule costs end to end (reloads, plus the window drains before swaps).
  state.counters["cycles_per_job"] =
      jobs > 0 ? counter("farm.shard_cycles") / static_cast<double>(jobs)
               : 0.0;
  // Simulated-cycle job latency distribution (enqueue -> completion) over
  // every draw; the tail shows what slot pressure costs the unluckiest
  // tenants, not just the mean.
  state.counters["lat_p50"] = static_cast<double>(lat.p50);
  state.counters["lat_p95"] = static_cast<double>(lat.p95);
  state.counters["lat_p99"] = static_cast<double>(lat.p99);
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

void register_slot_sweep() {
  auto* b = benchmark::RegisterBenchmark("BM_AlgodSlotSweep", BM_AlgodSlotSweep)
                ->Unit(benchmark::kMillisecond)
                ->UseRealTime()
                ->MeasureProcessCPUTime()
                ->Iterations(kIterations);
  // Slot budgets from heavy pressure (a third of the catalogue) to
  // everything-resident, under both victim rules and both hot sets.
  // slots=6 fits all six images: after the cold loads every probe is a
  // hit and evictions stay at zero — the floor CI asserts.
  for (long slots : {2, 3, 4, 6}) {
    for (long dear_hot : {0, 1}) {
      b->Args({slots, 0, dear_hot});
      b->Args({slots, 1, dear_hot});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  fpgafu::bench::init(&argc, argv);
  fpgafu::bench::section(
      "E15", "algorithm-on-demand slot cache (hit rate vs slot budget)");
  fpgafu::bench::note(
      "six-image catalogue, 24 skewed tenants on one shard, 12 tenant "
      "mixes per row shared by both victim rules; every job checked "
      "bit-identical against host::ReferenceModel");
  fpgafu::bench::note(
      "hit_rate = algod.hits / (hits + misses) over the whole run, "
      "including cold loads");
  register_slot_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

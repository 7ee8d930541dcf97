#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fu/functional_unit.hpp"
#include "host/coprocessor.hpp"
#include "isa/types.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace fpgafu::host {

/// A loadable "algorithm image": the unit of FPGA reconfiguration the
/// algorithm-on-demand manager schedules.  An image bundles one or more
/// functional units (one per declared function code) plus the modelled cost
/// of loading its partial bitstream, following the paper's observation that
/// "the functional unit approach lends itself to dynamic reconfiguration" —
/// the framework swaps algorithm circuits in and out of a fixed slot budget
/// at runtime instead of synthesising one monolithic design.
struct AlgorithmImage {
  /// Stable identity used by the replacement policy and the counters.
  std::string name;
  /// Function codes this image implements.  Each code occupies one physical
  /// slot while the image is resident; an image is loaded and evicted as a
  /// whole (a partial bitstream is indivisible).
  std::vector<isa::FunctionCode> codes;
  /// Modelled partial-reconfiguration latency in FPGA cycles, charged on
  /// the simulated clock through the FuLoader when the image is (re)loaded.
  /// Real PR times are tens of milliseconds — large enough that the
  /// scheduler must care, which is the point of modelling them.
  std::uint64_t load_cycles = 1000;
  /// Construct the functional unit for one of this image's codes, against
  /// the target system's simulator.  Called at most once per code: the
  /// manager caches constructed units (hardware analogue: the bitstream in
  /// host RAM) so eviction never destroys a sim::Component mid-simulation,
  /// while a reload still pays load_cycles.
  std::function<std::unique_ptr<fu::FunctionalUnit>(sim::Simulator&,
                                                    isa::FunctionCode)>
      factory;

  /// Slots this image occupies while resident.
  std::size_t slot_cost() const { return codes.size(); }
};

/// Victim-selection strategy for the manager's slot cache.  Policies see
/// load/hit/evict events and pick which resident image to displace; the
/// manager handles the mechanics (drain, detach, reload accounting).
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual std::string name() const = 0;
  /// `now` is a monotonic touch tick supplied by the manager (NOT the
  /// simulated cycle: a cache hit does not move the clock, so cycle-stamped
  /// recency would tie a hit with the load right before it);
  /// `load_cycles` is the image's reload cost.
  virtual void on_load(const std::string& image, std::uint64_t now,
                       std::uint64_t load_cycles) = 0;
  virtual void on_hit(const std::string& image, std::uint64_t now,
                      std::uint64_t load_cycles) = 0;
  virtual void on_evict(const std::string& image) = 0;
  /// Choose the victim among `candidates` (resident images not needed by
  /// the in-progress request; never empty).
  virtual std::string victim(const std::vector<std::string>& candidates) = 0;
};

/// Classic least-recently-used: evict the image whose last touch is oldest.
/// Ignores reload cost — the control experiment the cost-aware policy is
/// measured against.
class LruPolicy final : public ReplacementPolicy {
 public:
  std::string name() const override { return "lru"; }
  void on_load(const std::string& image, std::uint64_t now,
               std::uint64_t) override {
    last_use_[image] = now;
  }
  void on_hit(const std::string& image, std::uint64_t now,
              std::uint64_t) override {
    last_use_[image] = now;
  }
  void on_evict(const std::string& image) override { last_use_.erase(image); }
  std::string victim(const std::vector<std::string>& candidates) override;

 private:
  std::map<std::string, std::uint64_t> last_use_;
};

/// GreedyDual cost-aware replacement: each resident image carries a
/// retention credit `H = L + load_cycles`, refreshed on every touch, where
/// `L` is the *aging level* — the credit of the last evicted image (the
/// classic GreedyDual "inflation" trick, kept as a running max so it never
/// moves backwards).  The victim is the minimum-H image, ties broken by
/// oldest touch.  Expensive-to-reload images (slow partial bitstreams)
/// survive longer than cheap ones at equal recency, but an expensive image
/// that stops being touched is eventually aged out: every eviction raises
/// L, so freshly touched cheap images overtake a stale dear one instead of
/// letting it squat on a slot forever.  When all costs match the ordering
/// reduces to exact LRU (credits tie, the touch-tick tie-break decides).
class CostAwarePolicy final : public ReplacementPolicy {
 public:
  std::string name() const override { return "cost"; }
  void on_load(const std::string& image, std::uint64_t now,
               std::uint64_t load_cycles) override {
    entries_[image] = Entry{aging_level_ + load_cycles, now};
  }
  void on_hit(const std::string& image, std::uint64_t now,
              std::uint64_t load_cycles) override {
    entries_[image] = Entry{aging_level_ + load_cycles, now};
  }
  void on_evict(const std::string& image) override {
    auto it = entries_.find(image);
    if (it != entries_.end()) {
      aging_level_ = std::max(aging_level_, it->second.credit);
      entries_.erase(it);
    }
  }
  std::string victim(const std::vector<std::string>& candidates) override;

 private:
  struct Entry {
    std::uint64_t credit = 0;  ///< L at touch time + load_cycles
    std::uint64_t touch = 0;   ///< touch tick, tie-break (older loses)
  };
  std::map<std::string, Entry> entries_;
  std::uint64_t aging_level_ = 0;  ///< running max of evicted credits
};

/// The reconfiguration port, as a simulated hardware block: while a load is
/// in progress the loader is busy for the image's load_cycles, so swap
/// latency lands on the same clock as everything else — visible in cycle
/// counts, the counters and a VCD dump, not hidden in host bookkeeping.
class FuLoader final : public sim::Component {
 public:
  FuLoader(sim::Simulator& sim, std::string name)
      : sim::Component(sim, std::move(name)) {}

  /// Begin a load taking `cycles` clock cycles.  Only one load at a time
  /// (one reconfiguration port, like real PR controllers).
  void start(std::uint64_t cycles);
  bool busy() const { return remaining_ > 0; }

  void commit() override {
    if (remaining_ > 0) {
      --remaining_;
      mark_active();
    }
  }
  void reset() override { remaining_ = 0; }

 private:
  std::uint64_t remaining_ = 0;
};

struct FuManagerConfig {
  /// Physical slot budget: how many function codes can be resident at
  /// once.  The interesting regime is slots < union of the tenants'
  /// demands, which is what forces replacement.
  std::size_t slots = 4;
  /// Victim selection; defaults to LRU when null.
  std::shared_ptr<ReplacementPolicy> policy;
};

/// Algorithm-on-demand manager: a software-managed cache of functional
/// units over a bounded set of physical FU slots.
///
/// `register_image()` declares what *could* run (codes become typed
/// kUnitUnavailable instead of kUnknownFunction); `ensure_resident()` is
/// the cache probe — a hit refreshes the policy, a miss drains and evicts
/// victims via the RTM's hot-swap drain protocol, charges the image's
/// load latency on the simulated clock through the FuLoader, and attaches
/// the image's units.  Counters (algod.hits / misses / evictions / loads /
/// load_cycles / drain_cycles) quantify the cache behaviour the bench and
/// the multi-tenant soak assert on.
///
/// Thread discipline: a FuManager lives with its System on one shard
/// thread (the Farm's share-nothing rule); it is not itself thread-safe.
class FuManager {
 public:
  FuManager(Coprocessor& coproc, FuManagerConfig config);

  /// Register a loadable image and declare its codes known-but-unavailable
  /// (until first load, instructions for them error with kUnitUnavailable,
  /// which hosts treat as retryable).  Codes must not collide with another
  /// registered image or with a unit attached outside the manager; the
  /// image must fit the slot budget.
  void register_image(AlgorithmImage image);

  /// Make `name`'s image dispatchable, evicting victims and pumping the
  /// clock through drain + load as needed.  No-op (a recorded hit) when
  /// already resident.
  void ensure_resident(const std::string& name);

  /// Ensure every image in `names` is resident at once.  Orders misses
  /// after hits so a loaded image cannot be chosen as a victim for its
  /// co-scheduled peer.
  void ensure_resident_all(const std::vector<std::string>& names);

  bool resident(const std::string& name) const;
  bool registered(const std::string& name) const {
    return images_.count(name) != 0;
  }

  /// Cycles of load latency a request for `names` would have to pay right
  /// now (0 = all resident).  The Farm's affinity router uses this to pick
  /// the cheapest shard for a session's required set.
  std::uint64_t swap_cost(const std::vector<std::string>& names) const;

  /// Resident image names (unordered).
  std::vector<std::string> resident_images() const;

  std::size_t slots() const { return config_.slots; }
  std::size_t slots_used() const { return slots_used_; }

  const sim::Counters& counters() const { return stats_; }
  ReplacementPolicy& policy() { return *config_.policy; }

 private:
  /// Evict resident images until `cost` slots are free, never touching
  /// images named in `protect` (the request being satisfied).
  void make_room(std::size_t cost, const std::vector<std::string>& protect);
  /// Evict `name` through the drain protocol: begin_detach each code, pump
  /// until drained, finish_detach (leaves codes declared-unavailable).
  void evict(const std::string& name);
  /// Charge the image's load latency on the clock, then attach its units
  /// (constructing them on first load, reusing the cache after).
  void load(AlgorithmImage& image);

  Coprocessor* coproc_;
  FuManagerConfig config_;
  FuLoader loader_;
  std::map<std::string, AlgorithmImage> images_;
  std::map<std::string, bool> resident_;
  /// Constructed units, keyed "image\x1fcode": survive eviction so a
  /// sim::Component is never destroyed mid-simulation.
  std::map<std::string, std::unique_ptr<fu::FunctionalUnit>> unit_cache_;
  std::size_t slots_used_ = 0;
  /// Monotonic event counter fed to the policy as its recency clock.
  std::uint64_t touch_tick_ = 0;

  sim::Counters stats_;
  sim::Counters::Handle hits_;
  sim::Counters::Handle misses_;
  sim::Counters::Handle evictions_;
  sim::Counters::Handle loads_;
  sim::Counters::Handle load_cycles_;
  sim::Counters::Handle drain_cycles_;
};

}  // namespace fpgafu::host

#pragma once

#include <bitset>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fu/functional_unit.hpp"
#include "host/coprocessor.hpp"
#include "isa/types.hpp"
#include "rtm/fu_table.hpp"
#include "sim/component.hpp"
#include "sim/counters.hpp"

namespace fpgafu::host {

/// A loadable "algorithm image": the unit of FPGA reconfiguration the
/// algorithm-on-demand manager schedules.  An image bundles one or more
/// functional units (one per declared function code) plus the modelled cost
/// of loading its partial bitstream, following the paper's observation that
/// "the functional unit approach lends itself to dynamic reconfiguration" —
/// the framework swaps algorithm circuits in and out of a fixed slot budget
/// at runtime instead of synthesising one monolithic design.
struct AlgorithmImage {
  /// The name sessions require the image by (unique in a catalogue).
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

/// Dense id of a registered image: its position in registration order,
/// which in a Farm is its index in FarmConfig::fu_images.
using ImageId = std::size_t;

/// A set of images by id.  Each image owns at least one function code no
/// other image declares, and codes are 8 bits wide, so a catalogue holds at
/// most 256 images and a set never allocates.
using ImageSet = std::bitset<256>;

/// The ids of the `catalogue` images named in `names`.  Throws SimError on
/// a name the catalogue does not hold.
ImageSet image_set(const std::vector<AlgorithmImage>& catalogue,
                   const std::vector<std::string>& names);

/// The catalogue rules, shared by FuManager::register_image and the Farm
/// constructor.  Throws SimError unless `image` has a name, codes and a
/// factory, fits a budget of `slots`, and shares neither its name nor a
/// code with an image in `registered`, nor a code with a unit `table`
/// serves outside the manager.
void check_image(const AlgorithmImage& image,
                 std::span<const AlgorithmImage> registered,
                 std::size_t slots, const rtm::FunctionalUnitTable& table);

/// The reconfiguration port, as a simulated hardware block: while a load is
/// in progress the loader is busy for the image's load_cycles, so swap
/// latency lands on the same clock as everything else — visible in cycle
/// counts, the counters and a VCD dump, not hidden in host bookkeeping.
/// Busy is a function of the clock alone (the load's completion cycle), so
/// the loader does no work while a load runs; a reset ends the load.
class FuLoader final : public sim::Component {
 public:
  FuLoader(sim::Simulator& sim, std::string name)
      : sim::Component(sim, std::move(name)) {}

  /// Begin a load taking `cycles` clock cycles.  Only one load at a time
  /// (one reconfiguration port, like real PR controllers).
  void start(std::uint64_t cycles);
  bool busy() const { return simulator().cycle() < done_at_; }
  /// First cycle the port is free again.
  std::uint64_t free_at() const { return done_at_; }

  void reset() override { done_at_ = 0; }

 private:
  std::uint64_t done_at_ = 0;  ///< first cycle the port is free again
};

struct FuManagerConfig {
  /// Physical slot budget: how many function codes can be resident at
  /// once.  The interesting regime is slots < union of the tenants'
  /// demands, which is what forces replacement.
  std::size_t slots = 4;
  /// Victim rule (aged GreedyDual).  Every touch gives an image the credit
  /// `L + (cost_aware ? load_cycles : 0)`, where the aging level `L` is the
  /// highest credit evicted so far; the image with the lowest (credit,
  /// touch) is evicted.  false is exact LRU.  true keeps images that are
  /// dear to reload longer, yet every eviction raises L, so a dear image
  /// that stops being touched still ages out.
  bool cost_aware = false;
};

/// Algorithm-on-demand manager: a software-managed cache of functional
/// units over a bounded set of physical FU slots.
///
/// `register_image()` declares what *could* run (codes become typed
/// kUnitUnavailable instead of kUnknownFunction); `ensure_resident()` is
/// the cache probe — a hit refreshes the image's credit, a miss drains and
/// evicts victims via the RTM's hot-swap drain protocol, charges the
/// image's load latency on the simulated clock through the FuLoader, and
/// attaches the image's units.  Counters (algod.hits / misses / evictions / loads /
/// load_cycles / drain_cycles) quantify the cache behaviour the bench and
/// the multi-tenant soak assert on.
///
/// Thread discipline: a FuManager lives with its System on one shard
/// thread (the Farm's share-nothing rule); it is not itself thread-safe.
class FuManager {
 public:
  FuManager(Coprocessor& coproc, FuManagerConfig config);

  /// Register a loadable image under the next id (0, 1, ...) and declare
  /// its codes known-but-unavailable (until first load, instructions for
  /// them error with kUnitUnavailable, which hosts treat as retryable).
  /// The image must pass check_image against the images already
  /// registered and the units attached outside the manager.
  void register_image(AlgorithmImage image);

  /// Make every image in `images` resident at once, evicting victims and
  /// pumping the clock through drain + load as needed.  Resident images
  /// are recorded hits; misses load after them, and no image in `images`
  /// is chosen as a victim for another.
  void ensure_resident(const ImageSet& images);
  /// True when every image in `images` is resident.
  bool resident(const ImageSet& images) const {
    return (images & ~resident_).none();
  }

  /// By-name forms of the above (SimError on an unregistered name).
  void ensure_resident(const std::string& name) {
    ensure_resident(image_set(images_, {name}));
  }
  void ensure_resident_all(const std::vector<std::string>& names) {
    ensure_resident(image_set(images_, names));
  }
  bool resident(const std::string& name) const {
    return resident(image_set(images_, {name}));
  }

  const sim::Counters& counters() const { return stats_; }

 private:
  /// Per-image cache state, indexed by ImageId like images_.
  struct Entry {
    std::uint64_t credit = 0;  ///< victim rule credit at the last touch
    std::uint64_t touch = 0;   ///< touch tick of the last hit or load
    /// Constructed units, one per image code, built on first load.  They
    /// survive eviction so a sim::Component is never destroyed
    /// mid-simulation.
    std::vector<std::unique_ptr<fu::FunctionalUnit>> units;
  };

  /// Record a hit or load of `id` for the victim rule.
  void touch(ImageId id);
  /// Evict images outside `protect` until `cost` slots are free.
  void make_room(std::size_t cost, const ImageSet& protect);
  /// Evict `id` through the drain protocol: begin_detach each code, pump
  /// until drained, finish_detach (leaves codes declared-unavailable).
  void evict(ImageId id);
  /// Charge the image's load latency on the clock, then attach its units
  /// (constructing them on first load, reusing them after).
  void load(ImageId id);

  Coprocessor* coproc_;
  FuManagerConfig config_;
  FuLoader loader_;
  std::vector<AlgorithmImage> images_;
  std::vector<Entry> entries_;
  ImageSet resident_;
  std::size_t slots_used_ = 0;
  /// Monotonic recency clock: a cache hit does not move the simulated
  /// clock, so cycle-stamped recency would tie a hit with the load before.
  std::uint64_t touch_tick_ = 0;
  /// GreedyDual aging level L: the highest credit evicted so far.
  std::uint64_t aging_level_ = 0;

  sim::Counters stats_;
  sim::Counters::Handle hits_;
  sim::Counters::Handle misses_;
  sim::Counters::Handle evictions_;
  sim::Counters::Handle loads_;
  sim::Counters::Handle load_cycles_;
  sim::Counters::Handle drain_cycles_;
};

}  // namespace fpgafu::host

#include "host/algod.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace fpgafu::host {

ImageSet image_set(const std::vector<AlgorithmImage>& catalogue,
                   const std::vector<std::string>& names) {
  ImageSet set;
  for (const std::string& name : names) {
    const auto it =
        std::find_if(catalogue.begin(), catalogue.end(),
                     [&](const AlgorithmImage& i) { return i.name == name; });
    check(it != catalogue.end(), "algod: image '" + name + "' not registered");
    set.set(static_cast<ImageId>(it - catalogue.begin()));
  }
  return set;
}

void check_image(const AlgorithmImage& image,
                 std::span<const AlgorithmImage> registered,
                 std::size_t slots, const rtm::FunctionalUnitTable& table) {
  check(!image.name.empty(), "algod: image needs a name");
  check(!image.codes.empty(),
        "algod: image '" + image.name + "' declares no function codes");
  check(static_cast<bool>(image.factory),
        "algod: image '" + image.name + "' needs a factory");
  check(image.slot_cost() <= slots,
        "algod: image '" + image.name + "' needs " +
            std::to_string(image.slot_cost()) + " slots but the budget is " +
            std::to_string(slots));
  for (const AlgorithmImage& other : registered) {
    check(other.name != image.name,
          "algod: image '" + image.name + "' already registered");
  }
  for (const auto code : image.codes) {
    for (const AlgorithmImage& other : registered) {
      check(std::find(other.codes.begin(), other.codes.end(), code) ==
                other.codes.end(),
            "algod: function code already declared by image '" + other.name +
                "'");
    }
    check(!table.attached(code),
          "algod: function code is attached outside the manager");
  }
}

void FuLoader::start(std::uint64_t cycles) {
  check(!busy(),
        "fu_loader: a partial reconfiguration is already in progress (the "
        "model has one reconfiguration port)");
  done_at_ = simulator().cycle() + cycles;
}

FuManager::FuManager(Coprocessor& coproc, FuManagerConfig config)
    : coproc_(&coproc),
      config_(config),
      loader_(coproc.system().simulator(), "fu_loader"),
      hits_(stats_.handle("algod.hits")),
      misses_(stats_.handle("algod.misses")),
      evictions_(stats_.handle("algod.evictions")),
      loads_(stats_.handle("algod.loads")),
      load_cycles_(stats_.handle("algod.load_cycles")),
      drain_cycles_(stats_.handle("algod.drain_cycles")) {
  check(config_.slots > 0, "FuManagerConfig::slots must be > 0");
}

void FuManager::register_image(AlgorithmImage image) {
  auto& system = coproc_->system();
  check_image(image, images_, config_.slots, system.rtm().table());
  // From registration on, the codes are *known*: instructions for them
  // error with the retryable kUnitUnavailable, not kUnknownFunction.
  for (const auto code : image.codes) {
    system.declare_unavailable(code);
  }
  images_.push_back(std::move(image));
  entries_.emplace_back().units.resize(images_.back().codes.size());
}

void FuManager::ensure_resident(const ImageSet& images) {
  std::size_t missing_cost = 0;
  for (ImageId id = 0; id < images_.size(); ++id) {
    if (!images.test(id)) {
      continue;
    }
    if (resident_.test(id)) {
      stats_.bump(hits_);
      touch(id);
    } else {
      missing_cost += images_[id].slot_cost();
    }
  }
  if (missing_cost == 0) {
    return;
  }
  check(missing_cost <= config_.slots,
        "algod: request needs " + std::to_string(missing_cost) +
            " free slots but the budget is " + std::to_string(config_.slots));
  make_room(missing_cost, images);
  const ImageSet missing = images & ~resident_;
  for (ImageId id = 0; id < images_.size(); ++id) {
    if (missing.test(id)) {
      stats_.bump(misses_);
      load(id);
    }
  }
}

void FuManager::touch(ImageId id) {
  Entry& e = entries_[id];
  e.credit = aging_level_ + (config_.cost_aware ? images_[id].load_cycles : 0);
  e.touch = ++touch_tick_;
}

void FuManager::make_room(std::size_t cost, const ImageSet& protect) {
  while (config_.slots - slots_used_ < cost) {
    const ImageSet candidates = resident_ & ~protect;
    check(candidates.any(),
          "algod: cannot make room — every resident image is part of the "
          "request (slot budget too small for the required set)");
    // The lowest (credit, touch) loses.  Touch ticks are unique, so the
    // victim is too; at uniform credit the oldest touch loses (LRU).
    ImageId victim = images_.size();
    for (ImageId id = 0; id < images_.size(); ++id) {
      if (candidates.test(id) &&
          (victim == images_.size() ||
           std::tie(entries_[id].credit, entries_[id].touch) <
               std::tie(entries_[victim].credit, entries_[victim].touch))) {
        victim = id;
      }
    }
    evict(victim);
  }
}

void FuManager::evict(ImageId id) {
  const AlgorithmImage& image = images_[id];
  auto& system = coproc_->system();
  for (const auto code : image.codes) {
    system.begin_detach(code);
  }
  // Drain: in-flight writes keep retiring through the arbiter; stalled or
  // new instructions for the codes become kUnitUnavailable responses.  In
  // the Farm path the transport window is already empty, so this usually
  // completes without stepping; under direct use it pumps until quiesced.
  const std::uint64_t spent = coproc_->pump().run_until(
      [&] {
        return std::all_of(image.codes.begin(), image.codes.end(),
                           [&](isa::FunctionCode code) {
                             return system.detach_drained(code);
                           })
                   ? Wake::done()
                   : Wake::on_step();
      },
      Deadline(system.simulator(), kDefaultCallBudgetCycles),
      "algod: drain '" + image.name + "'");
  stats_.bump(drain_cycles_, spent);
  for (const auto code : image.codes) {
    system.finish_detach(code);
  }
  resident_.reset(id);
  slots_used_ -= image.slot_cost();
  stats_.bump(evictions_);
  aging_level_ = std::max(aging_level_, entries_[id].credit);
}

void FuManager::load(ImageId id) {
  const AlgorithmImage& image = images_[id];
  auto& system = coproc_->system();
  // Charge the partial-reconfiguration latency on the simulated clock: the
  // loader stays busy for load_cycles, so the swap shows up in cycle
  // counts (and in a VCD dump) exactly where it happens.
  if (image.load_cycles > 0) {
    loader_.start(image.load_cycles);
    const std::uint64_t spent = coproc_->pump().run_until(
        [&] {
          // Busy is a function of the clock alone: no step announces its
          // end, so wake at it.
          return loader_.busy() ? Wake::at(loader_.free_at()) : Wake::done();
        },
        Deadline(system.simulator(), kDefaultCallBudgetCycles),
        "algod: load '" + image.name + "'");
    stats_.bump(load_cycles_, spent);
  }
  auto& units = entries_[id].units;
  for (std::size_t i = 0; i < image.codes.size(); ++i) {
    if (!units[i]) {
      units[i] = image.factory(system.simulator(), image.codes[i]);
      check(units[i] != nullptr,
            "algod: factory for image '" + image.name + "' returned null");
    }
    system.attach(image.codes[i], *units[i]);
  }
  resident_.set(id);
  slots_used_ += image.slot_cost();
  stats_.bump(loads_);
  touch(id);
}

}  // namespace fpgafu::host

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/types.hpp"
#include "sim/component.hpp"
#include "util/error.hpp"

namespace fpgafu::rtm {

/// Lock manager + register usage table (paper Fig. 4).
///
/// Every destination register (data or flag) of an in-flight operation is
/// locked at dispatch and unlocked when the write arbiter retires the
/// write.  The dispatcher stalls an instruction whose sources are locked
/// (RAW) or whose destinations are locked (WAW — guaranteeing at most one
/// in-flight writer per register, which is what lets completions happen out
/// of order without ambiguity).
///
/// The usage table records *which* unit owns the pending write — the
/// paper's "Register Usage Table" — for introspection and assertions.
class LockManager {
 public:
  /// Owner id used for the execution stage's high-priority writes.
  static constexpr std::uint32_t kExecutionOwner = ~std::uint32_t{0};

  LockManager(std::size_t data_regs, std::size_t flag_regs)
      : data_owner_(data_regs, kFree), flag_owner_(flag_regs, kFree) {}

  bool data_locked(isa::RegNum reg) const {
    return data_owner_.at(reg) != kFree;
  }
  bool flag_locked(isa::RegNum reg) const {
    return flag_owner_.at(reg) != kFree;
  }

  /// Owner of a locked register (kExecutionOwner or a FU table index).
  std::uint32_t data_owner(isa::RegNum reg) const { return data_owner_.at(reg); }
  std::uint32_t flag_owner(isa::RegNum reg) const { return flag_owner_.at(reg); }

  void lock_data(isa::RegNum reg, std::uint32_t owner) {
    check(data_owner_.at(reg) == kFree, "double lock on data register");
    data_owner_[reg] = owner;
    ++held_;
    notify();
  }
  void lock_flag(isa::RegNum reg, std::uint32_t owner) {
    check(flag_owner_.at(reg) == kFree, "double lock on flag register");
    flag_owner_[reg] = owner;
    ++held_;
    notify();
  }
  void unlock_data(isa::RegNum reg) {
    check(data_owner_.at(reg) != kFree, "unlock of free data register");
    data_owner_[reg] = kFree;
    --held_;
    notify();
  }
  void unlock_flag(isa::RegNum reg) {
    check(flag_owner_.at(reg) != kFree, "unlock of free flag register");
    flag_owner_[reg] = kFree;
    --held_;
    notify();
  }

  /// Number of locks currently held; zero means every architecturally
  /// visible write has landed (the SYNC condition).
  std::size_t held() const { return held_; }

  void clear() {
    data_owner_.assign(data_owner_.size(), kFree);
    flag_owner_.assign(flag_owner_.size(), kFree);
    held_ = 0;
    notify();
  }

  /// Lock state is shared non-Wire state, read combinationally by the
  /// dispatcher but mutated from other components' commits (the write
  /// arbiter) and from host-side calls.  The observer — the component whose
  /// eval() reads it — is woken on every mutation so the event kernel's
  /// wire tracker never misses this side channel.
  void set_observer(sim::Component* observer) { observer_ = observer; }

  /// Bumped by every mutation: equal generations mean identical lock
  /// state, so a reader may reuse what it derived from it.
  std::uint64_t generation() const { return generation_; }

 private:
  void notify() {
    ++generation_;
    if (observer_ != nullptr) {
      observer_->wake();
    }
  }

  static constexpr std::uint32_t kFree = ~std::uint32_t{0} - 1;
  sim::Component* observer_ = nullptr;
  std::uint64_t generation_ = 0;

  std::vector<std::uint32_t> data_owner_;
  std::vector<std::uint32_t> flag_owner_;
  std::size_t held_ = 0;
};

}  // namespace fpgafu::rtm

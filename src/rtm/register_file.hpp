#pragma once

#include <cstddef>
#include <vector>

#include "isa/types.hpp"
#include "sim/component.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace fpgafu::rtm {

/// The main register file: "holds data, and its word size is configurable
/// in multiples of 32 bits" (paper §III).
///
/// This model supports configured widths of 32 and 64 bits in a 64-bit
/// container (see DESIGN.md §2).  Reads are combinational (the dispatcher
/// reads up to three operands per cycle); writes are performed exclusively
/// by the write arbiter's clocked process, which is what makes the
/// one-writer-per-cycle discipline of the hardware explicit.
class RegisterFile {
 public:
  RegisterFile(std::size_t count, unsigned width_bits)
      : words_(count), width_(width_bits) {
    check(count >= 2 && count <= 256,
          "register count must be in [2, 256] (8-bit register numbers)");
    check(width_bits % 32 == 0 && width_bits >= 32 && width_bits <= 64,
          "word width must be a multiple of 32 bits (model supports 32/64)");
  }

  std::size_t size() const { return words_.size(); }
  unsigned width() const { return width_; }
  bool valid(isa::RegNum reg) const { return reg < words_.size(); }

  isa::Word read(isa::RegNum reg) const {
    check(valid(reg), "register read out of range");
    return words_[reg];
  }

  void write(isa::RegNum reg, isa::Word value) {
    check(valid(reg), "register write out of range");
    words_[reg] = value & bits::mask(width_);
    notify();
  }

  void clear() {
    words_.assign(words_.size(), 0);
    notify();
  }

  /// Register contents are shared non-Wire state read combinationally by
  /// the dispatcher; wake the observer on every mutation (see LockManager).
  void set_observer(sim::Component* observer) { observer_ = observer; }

  /// Bumped by every write (see LockManager::generation).
  std::uint64_t generation() const { return generation_; }

 private:
  void notify() {
    ++generation_;
    if (observer_ != nullptr) {
      observer_->wake();
    }
  }

  std::vector<isa::Word> words_;
  unsigned width_;
  sim::Component* observer_ = nullptr;
  std::uint64_t generation_ = 0;
};

/// The secondary register file "holding vectors of flags, which are often
/// useful for controlling the functional units" (paper §III).
class FlagRegisterFile {
 public:
  explicit FlagRegisterFile(std::size_t count) : flags_(count) {
    check(count >= 1 && count <= 256, "flag register count must be in [1, 256]");
  }

  std::size_t size() const { return flags_.size(); }
  bool valid(isa::RegNum reg) const { return reg < flags_.size(); }

  isa::FlagWord read(isa::RegNum reg) const {
    check(valid(reg), "flag register read out of range");
    return flags_[reg];
  }

  void write(isa::RegNum reg, isa::FlagWord value) {
    check(valid(reg), "flag register write out of range");
    flags_[reg] = value;
    notify();
  }

  void clear() {
    flags_.assign(flags_.size(), 0);
    notify();
  }

  /// See RegisterFile::set_observer.
  void set_observer(sim::Component* observer) { observer_ = observer; }

  /// Bumped by every write (see LockManager::generation).
  std::uint64_t generation() const { return generation_; }

 private:
  void notify() {
    ++generation_;
    if (observer_ != nullptr) {
      observer_->wake();
    }
  }

  std::vector<isa::FlagWord> flags_;
  sim::Component* observer_ = nullptr;
  std::uint64_t generation_ = 0;
};

}  // namespace fpgafu::rtm

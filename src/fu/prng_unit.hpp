#pragma once

#include <string>

#include "fu/minimal_fu.hpp"
#include "util/bits.hpp"

namespace fpgafu::fu {

/// Pseudorandom-number-generator functional unit — one of the paper's
/// named stateful examples ("examples of stateful functional units are
/// histogram calculators, pseudorandom number generators, and associative
/// memories", §IV-B).
///
/// The persistent state is a 64-bit xorshift64 register (three shift-XOR
/// stages — exactly the LFSR-style datapath an FPGA implementation would
/// use), updated by the core of a minimal skeleton.  Operations (variety
/// code):
///   kSeed — state <- operand1 (0 is replaced by a fixed nonzero constant);
///   kNext — advance and return the new state masked to `width` bits;
///   kPeek — return the current state without advancing.
class PrngUnit : public MinimalFu {
 public:
  static constexpr isa::VarietyCode kSeed = 0x01;
  static constexpr isa::VarietyCode kNext = 0x02;
  static constexpr isa::VarietyCode kPeek = 0x03;

  PrngUnit(sim::Simulator& sim, std::string name, unsigned width = 32)
      : MinimalFu(sim, std::move(name),
                  [this](isa::VarietyCode v, isa::Word seed, isa::Word,
                         isa::FlagWord) { return execute(v, seed); }),
        width_(width) {}

  void reset() override {
    MinimalFu::reset();
    state_ = kDefaultSeed;
  }

  std::uint64_t state() const { return state_; }

 private:
  static constexpr std::uint64_t kDefaultSeed = 0x2545f4914f6cdd1dULL;

  StatelessOut execute(isa::VarietyCode variety, isa::Word seed) {
    switch (variety) {
      case kSeed:
        state_ = seed != 0 ? seed : kDefaultSeed;
        return word_out(0, false);
      case kNext:
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return word_out(state_ & bits::mask(width_), false);
      case kPeek:
        return word_out(state_ & bits::mask(width_), false);
      default:
        return word_out(0, /*error=*/true);
    }
  }

  unsigned width_;
  std::uint64_t state_ = kDefaultSeed;
};

}  // namespace fpgafu::fu

#pragma once

#include <string>
#include <vector>

#include "fu/minimal_fu.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace fpgafu::fu {

/// On-FPGA scratchpad memory functional unit: a block-RAM buffer the host
/// program addresses through instructions.
///
/// The paper's interface "can collect data from the processor, buffer it,
/// run the functional units, obtain their results"; the register file is
/// that buffer for a handful of words.  Real workloads (matrices, signal
/// blocks) need more on-chip state than registers — this unit is the
/// natural BRAM-backed extension, and another canonical stateful unit in
/// the §IV-B sense ("smart memory" without the smartness: plain addressed
/// storage).
///
/// Operations (variety code; address in operand1, data in operand2):
///   kWrite — mem[addr] <- data; result = data;
///   kRead  — result = mem[addr];
///   kFill  — every word <- data (a hardware clear/fill, one dispatch);
///   kSize  — result = capacity in words.
/// Out-of-range addresses set the error flag (destination undefined).
///
/// Timing: the minimal skeleton around a single-ported BRAM, one cycle per
/// operation; kFill is also one dispatch (hardware fill logic), which the
/// model preserves.
class ScratchpadUnit : public MinimalFu {
 public:
  static constexpr isa::VarietyCode kWrite = 0x01;
  static constexpr isa::VarietyCode kRead = 0x02;
  static constexpr isa::VarietyCode kFill = 0x03;
  static constexpr isa::VarietyCode kSize = 0x04;

  ScratchpadUnit(sim::Simulator& sim, std::string name, std::size_t words,
                 unsigned width = 32)
      : MinimalFu(sim, std::move(name),
                  [this](isa::VarietyCode v, isa::Word addr, isa::Word data,
                         isa::FlagWord) { return execute(v, addr, data); }),
        mem_(words, 0),
        width_(width) {
    check(words >= 1, "scratchpad needs at least one word");
  }

  std::size_t capacity() const { return mem_.size(); }

  /// Direct test/debug access (the host path goes through instructions).
  isa::Word peek(std::size_t addr) const { return mem_.at(addr); }

  void reset() override {
    MinimalFu::reset();
    mem_.assign(mem_.size(), 0);
  }

 private:
  StatelessOut execute(isa::VarietyCode variety, isa::Word addr,
                       isa::Word data) {
    data &= bits::mask(width_);
    switch (variety) {
      case kWrite:
        if (addr >= mem_.size()) {
          return word_out(0, /*error=*/true);
        }
        mem_[addr] = data;
        return word_out(data, false);
      case kRead:
        if (addr >= mem_.size()) {
          return word_out(0, /*error=*/true);
        }
        return word_out(mem_[addr], false);
      case kFill:
        mem_.assign(mem_.size(), data);
        return word_out(data, false);
      case kSize:
        return word_out(mem_.size(), false);
      default:
        return word_out(0, /*error=*/true);
    }
  }

  std::vector<isa::Word> mem_;
  unsigned width_;
};

}  // namespace fpgafu::fu

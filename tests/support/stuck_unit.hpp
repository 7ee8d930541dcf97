#pragma once

#include <memory>
#include <string>

#include "fu/functional_unit.hpp"
#include "host/algod.hpp"
#include "isa/assembler.hpp"
#include "top/system.hpp"

namespace fpgafu::testing {

/// A functional unit that never asserts `idle`: the dispatcher stalls on
/// it for ever, so nothing behind its first instruction is taken off the
/// link.
class StuckUnit : public fu::FunctionalUnit {
 public:
  using FunctionalUnit::FunctionalUnit;
};

/// The logic code is left free for the stuck unit; the downlink holds two
/// link words, so the host's sends back up almost at once.
inline top::SystemConfig stuck_config() {
  top::SystemConfig cfg;
  cfg.with_logic = false;
  cfg.link_down_capacity = 2;
  return cfg;
}

/// The stuck unit as a loadable image on the logic code, for a farm over
/// stuck_config().
inline host::AlgorithmImage stuck_image() {
  host::AlgorithmImage img;
  img.name = "stuck";
  img.codes = {isa::fc::kLogic};
  img.load_cycles = 10;
  img.factory = [](sim::Simulator& sim, isa::FunctionCode) {
    return std::make_unique<StuckUnit>(sim, "stuck");
  };
  return img;
}

/// 64 instructions for the stuck unit, then a GET.
inline isa::Program stuck_program() {
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "XOR r3, r1, r2\n";
  }
  text += "GET r1\n";
  return isa::Assembler::assemble(text);
}

}  // namespace fpgafu::testing

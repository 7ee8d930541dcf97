#pragma once

#include <memory>
#include <vector>

#include "fu/stateless_units.hpp"
#include "isa/program.hpp"
#include "msg/response.hpp"
#include "rtm/rtm.hpp"
#include "support/handshake_harness.hpp"

namespace fpgafu::testing {

/// A directly-driven RTM (no transceiver link): an instruction-word
/// producer feeds the decoder and a response consumer drains the encoder.
/// Used by RTM unit/property tests where link timing is irrelevant.
struct RtmRig {
  sim::Simulator sim;
  rtm::RtmConfig cfg;
  rtm::Rtm rtm;
  sim::Handshake<isa::Word> instr_ch;
  sim::Handshake<msg::Response> resp_ch;
  Producer<isa::Word> prod;
  Consumer<msg::Response> cons;
  std::vector<std::unique_ptr<fu::FunctionalUnit>> units;

  explicit RtmRig(const rtm::RtmConfig& config = {},
                  fu::Skeleton skeleton = fu::Skeleton::kMinimal,
                  bool attach_units = true)
      : cfg(config),
        rtm(sim, cfg),
        instr_ch(sim),
        resp_ch(sim),
        prod(sim, "host_tx", {}),
        cons(sim, "host_rx") {
    rtm.bind_input(instr_ch);
    rtm.bind_output(resp_ch);
    prod.bind(instr_ch);
    cons.bind(resp_ch);
    if (attach_units) {
      fu::StatelessConfig ucfg;
      ucfg.width = cfg.word_width;
      ucfg.skeleton = skeleton;
      for (const isa::StockUnit& row : isa::kStockUnits) {
        units.push_back(fu::make_stock_unit(sim, row.code, ucfg));
        rtm.attach(row.code, *units.back());
      }
    }
  }

  /// Feed the program and run until all expected responses arrived and the
  /// pipeline drained.  Returns the responses.
  std::vector<msg::Response> run_program(const isa::Program& program,
                                         std::uint64_t max_cycles = 200000) {
    for (const isa::Word w : program.words()) {
      prod.push(w);
    }
    sim.run_until(
        [&] {
          return cons.received().size() >= program.expected_responses() &&
                 prod.done() && rtm.quiescent();
        },
        max_cycles);
    return cons.received();
  }
};

}  // namespace fpgafu::testing

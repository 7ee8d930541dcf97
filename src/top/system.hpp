#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fu/stateless_units.hpp"
#include "msg/link.hpp"
#include "msg/message_buffer.hpp"
#include "msg/message_serializer.hpp"
#include "rtm/rtm.hpp"
#include "util/error.hpp"
#include "xsort/unit.hpp"

namespace fpgafu::top {

/// Configuration of a complete coprocessor system (paper Fig. 2): the
/// interface circuitry (link transceiver), the hardware message buffers,
/// the RTM controller and the set of functional units.
struct SystemConfig {
  rtm::RtmConfig rtm;
  msg::LinkTiming link_down = msg::kTightLink.timing;  ///< host -> FPGA
  msg::LinkTiming link_up = msg::kTightLink.timing;    ///< FPGA -> host
  /// Bounded link transfer buffers (0 = unbounded, the historical model).
  std::size_t link_down_capacity = 0;
  std::size_t link_up_capacity = 0;
  /// Seeded word-level fault injection on the link (all rates zero by
  /// default: the link never faults).
  msg::FaultConfig link_faults;
  std::size_t message_buffer_depth = 8;
  std::size_t serializer_depth = 4;

  /// FPGA clock for wall-time projections.  The paper's prototyping board
  /// ran "at approximately 50 MHz".
  double clock_mhz = 50.0;

  /// Which stock units to attach (thesis §3.2), and with which skeleton;
  /// fu::make_stock_unit applies it (multiply/divide always runs on the
  /// FSM skeleton, and trig moves there from a minimal one).
  bool with_arithmetic = true;
  bool with_logic = true;
  bool with_shift = true;
  /// Extension units: the multi-cycle multiply/divide unit (sequential
  /// shift-add/restoring datapath, division-by-zero error flag), the
  /// IEEE-754 single-precision soft-float unit, and the CORDIC
  /// trigonometric unit (the paper's "trigonometric function calculators").
  bool with_muldiv = true;
  bool with_float = true;
  bool with_trig = true;
  fu::Skeleton stateless_skeleton = fu::Skeleton::kMinimal;

  /// Attach the stateful χ-sort engine (thesis §3.3).
  bool with_xsort = false;
  xsort::XsortConfig xsort;

  /// Reject configurations the model cannot run: a non-positive clock
  /// (cycles_to_us would divide by it), a zero-depth message buffer or
  /// serializer (the hardware FIFOs need at least one slot to ever accept
  /// a word).  Called by the System constructor; throws SimError with a
  /// description of the offending field.
  void validate() const {
    check(clock_mhz > 0.0,
          "SystemConfig::clock_mhz must be > 0 (got " +
              std::to_string(clock_mhz) + " MHz): wall-clock projections "
              "divide by the FPGA clock");
    check(message_buffer_depth > 0,
          "SystemConfig::message_buffer_depth must be > 0: a zero-slot "
          "hardware message buffer can never accept an instruction word");
    check(serializer_depth > 0,
          "SystemConfig::serializer_depth must be > 0: a zero-slot message "
          "serializer can never accept a response");
  }
};

/// A complete simulated coprocessor: everything that would live on the
/// FPGA, plus the link to the host.  The host side talks to it through
/// host::Coprocessor.
class System {
 public:
  explicit System(const SystemConfig& config)
      : config_(validated(config)),
        link_(sim_, "link", config.link_down, config.link_up,
              config.link_down_capacity, config.link_up_capacity,
              config.link_faults),
        buffer_(sim_, "message_buffer", config.message_buffer_depth),
        rtm_(sim_, config.rtm),
        serializer_(sim_, "message_serializer", config.serializer_depth) {
    buffer_.bind(link_.rx);
    rtm_.bind_input(buffer_.out);
    rtm_.bind_output(serializer_.in);
    serializer_.bind(link_.tx);

    fu::StatelessConfig ucfg;
    ucfg.width = config.rtm.word_width;
    ucfg.skeleton = config.stateless_skeleton;
    const std::pair<isa::FunctionCode, bool> stock[] = {
        {isa::fc::kArith, config.with_arithmetic},
        {isa::fc::kLogic, config.with_logic},
        {isa::fc::kShift, config.with_shift},
        {isa::fc::kMulDiv, config.with_muldiv},
        {isa::fc::kFloat, config.with_float},
        {isa::fc::kTrig, config.with_trig}};
    for (const auto& [code, wanted] : stock) {
      if (wanted) {
        units_.push_back(fu::make_stock_unit(sim_, code, ucfg));
        rtm_.attach(code, *units_.back());
      }
    }
    if (config.with_xsort) {
      xsort_ = std::make_unique<xsort::XsortUnit>(sim_, "xsort", config.xsort);
      rtm_.attach(isa::fc::kXsort, *xsort_);
    }
  }

  /// Attach an additional (user-defined) functional unit.  The unit must
  /// have been constructed against this system's simulator.
  void attach(isa::FunctionCode code, fu::FunctionalUnit& unit) {
    rtm_.attach(code, unit);
  }

  /// Detach a unit at runtime (partial reconfiguration analogue).  Quiesce
  /// first — e.g. issue a SYNC through the host driver.  Throws
  /// rtm::DetachBusy if the unit still has work in the pipeline; use the
  /// drain protocol (begin_detach / detach_drained / finish_detach) to
  /// remove a unit under live traffic instead.
  void detach(isa::FunctionCode code) { rtm_.detach(code); }

  /// Hot-swap drain protocol passthroughs (see Rtm) — used by the
  /// host-side algorithm-on-demand manager (host::FuManager).
  void begin_detach(isa::FunctionCode code) { rtm_.begin_detach(code); }
  bool detach_drained(isa::FunctionCode code) const {
    return rtm_.detach_drained(code);
  }
  void finish_detach(isa::FunctionCode code) { rtm_.finish_detach(code); }
  void declare_unavailable(isa::FunctionCode code) {
    rtm_.declare_unavailable(code);
  }

  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  msg::Link& link() { return link_; }
  rtm::Rtm& rtm() { return rtm_; }
  const SystemConfig& config() const { return config_; }
  xsort::XsortUnit* xsort_unit() { return xsort_.get(); }

  /// Project a cycle count onto wall-clock microseconds at the configured
  /// FPGA clock.
  double cycles_to_us(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / config_.clock_mhz;
  }

  /// True when nothing is in flight anywhere on the FPGA or the link.
  bool idle() const {
    return !buffer_.busy() && rtm_.quiescent() &&
           serializer_.pending_words() == 0 && link_.drained();
  }

 private:
  /// Validation runs before any member construction (config_ is the first
  /// member), so a bad depth is reported as a SimError instead of
  /// misbehaving inside a FIFO constructor.
  static const SystemConfig& validated(const SystemConfig& config) {
    config.validate();
    return config;
  }

  SystemConfig config_;
  sim::Simulator sim_;
  msg::Link link_;
  msg::MessageBuffer buffer_;
  rtm::Rtm rtm_;
  msg::MessageSerializer serializer_;
  std::vector<std::unique_ptr<fu::FunctionalUnit>> units_;
  std::unique_ptr<xsort::XsortUnit> xsort_;
};

}  // namespace fpgafu::top

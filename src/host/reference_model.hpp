#pragma once

#include <vector>

#include "isa/program.hpp"
#include "msg/response.hpp"
#include "rtm/rtm.hpp"

namespace fpgafu::host {

/// Golden sequential reference model of the coprocessor's architectural
/// semantics.
///
/// Executes an instruction stream the way a (bug-free) RTM must appear to
/// have executed it from the host's point of view: in program order, with
/// the stateless units' ISA-level semantics, producing the exact response
/// stream.  Because the hardware guarantees that out-of-order completion is
/// architecturally invisible ("the stream of results returned to the
/// processor will be consistent with the stream of instructions that were
/// issued"), the cycle-accurate model and this one-line-at-a-time model
/// must agree response-for-response — the property the randomized
/// integration tests check.
///
/// Stateful (user) functional units are outside its scope; attach unit
/// emulators via `set_unit_hook` if needed.
class ReferenceModel {
 public:
  explicit ReferenceModel(const rtm::RtmConfig& config);

  /// Run a whole instruction stream, returning the response sequence.
  std::vector<msg::Response> run(const isa::Program& program);

  /// Feed a single stream word (instructions and PUT payloads); responses
  /// accumulate in `responses()`.
  void feed(isa::Word word);

  const std::vector<msg::Response>& responses() const { return responses_; }
  isa::Word reg(isa::RegNum r) const { return regs_.at(r); }
  isa::FlagWord flag_reg(isa::RegNum r) const { return flags_.at(r); }
  void clear();

 private:
  void execute(const isa::Instruction& inst, std::uint16_t seq);

  rtm::RtmConfig config_;
  std::vector<isa::Word> regs_;
  std::vector<isa::FlagWord> flags_;
  std::vector<msg::Response> responses_;
  std::uint16_t seq_ = 0;
  unsigned payload_left_ = 0;  ///< PUT/PUTV payload words still to come
  isa::RegNum payload_reg_ = 0;  ///< the next payload word's register
  bool payload_discard_ = false;  ///< the instruction faulted
};

}  // namespace fpgafu::host

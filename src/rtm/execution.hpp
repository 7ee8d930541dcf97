#pragma once

#include <string>

#include "rtm/decoded.hpp"
#include "sim/component.hpp"
#include "sim/handshake.hpp"
#include "sim/signal.hpp"

namespace fpgafu::rtm {

/// A register or flag write requested by the execution stage on the write
/// arbiter's dedicated high-priority port (paper Fig. 4).
struct HighPriorityWrite {
  bool write_data = false;
  isa::RegNum dst_reg = 0;
  isa::Word data = 0;
  bool write_flags = false;
  isa::RegNum dst_flag_reg = 0;
  isa::FlagWord flags = 0;

  bool operator==(const HighPriorityWrite&) const = default;
};

/// Execution pipeline stage (paper §III): "Instructions that operate on the
/// state of the RTM are executed" here.  Register/flag writes go to the
/// write arbiter's high-priority port (always granted, one per cycle);
/// host-visible results (GET/GETF/SYNC/errors) become responses offered to
/// the message encoder, in instruction order.
class Execution : public sim::Component {
 public:
  Execution(sim::Simulator& sim, std::string name)
      : Component(sim, std::move(name)), resp_out(sim), hp(sim) {}

  sim::Handshake<ExecPacket>* in = nullptr;  ///< from the dispatcher
  sim::Handshake<msg::Response> resp_out;    ///< to the message encoder
  sim::Wire<HighPriorityWrite> hp;           ///< to the write arbiter (no backpressure)

  void bind(sim::Handshake<ExecPacket>& dispatcher_out) {
    in = &dispatcher_out;
  }

  std::uint64_t executed() const { return executed_; }

  /// True while an instruction is held in this stage.
  bool busy() const { return have_; }

  void eval() override {
    HighPriorityWrite w;
    bool completing = false;
    if (have_) {
      const Action a = action_for(held_);
      w = a.write;
      if (a.respond) {
        resp_out.offer(a.response);
        completing = resp_out.ready.get();
      } else {
        resp_out.withdraw();
        completing = true;  // high-priority writes are always granted
      }
    } else {
      resp_out.withdraw();
    }
    hp.set(w);
    completing_ = completing;
    in->ready.set(!have_ || completing);
  }

  void commit() override {
    if (have_ || in->fire()) {
      mark_active();  // have_/held_/executed_ are plain clocked state
    }
    if (have_ && completing_) {
      have_ = false;
      ++executed_;
    }
    if (in->fire()) {
      held_ = in->data.get();
      have_ = true;
    }
  }

  void reset() override {
    have_ = false;
    held_ = ExecPacket{};
    executed_ = 0;
    resp_out.reset();
    hp.reset();
  }

 private:
  struct Action {
    HighPriorityWrite write;
    bool respond = false;
    msg::Response response;
  };

  Action action_for(const ExecPacket& p) const {
    using isa::RtmOp;
    Action a;
    const isa::Instruction& inst = p.di.inst;
    if (p.di.error != msg::ErrorCode::kNone) {
      a.respond = true;
      a.response.type = msg::Response::Type::kError;
      a.response.code = static_cast<std::uint8_t>(p.di.error);
      a.response.seq = p.di.seq;
      a.response.burst = p.di.burst;
      a.response.payload = inst.encode();
      return a;
    }
    switch (static_cast<RtmOp>(inst.variety)) {
      case RtmOp::kNop:
      case RtmOp::kPutVec:  // expanded in the decoder; header is inert here
      case RtmOp::kGetVec:
        break;
      case RtmOp::kCopy:
        a.write.write_data = true;
        a.write.dst_reg = inst.dst1;
        a.write.data = p.src1_value;
        break;
      case RtmOp::kCopyFlags:
        a.write.write_flags = true;
        a.write.dst_flag_reg = inst.dst_flag;
        a.write.flags = p.src_flag_value;
        break;
      case RtmOp::kPut:
        a.write.write_data = true;
        a.write.dst_reg = inst.dst1;
        a.write.data = p.di.inline_data;
        break;
      case RtmOp::kPutImm:
        a.write.write_data = true;
        a.write.dst_reg = inst.dst1;
        a.write.data = inst.imm32();
        break;
      case RtmOp::kPutFlags:
        a.write.write_flags = true;
        a.write.dst_flag_reg = inst.dst_flag;
        a.write.flags = static_cast<isa::FlagWord>(inst.aux);
        break;
      case RtmOp::kGet:
        a.respond = true;
        a.response.type = msg::Response::Type::kData;
        a.response.seq = p.di.seq;
        a.response.burst = p.di.burst;
        a.response.payload = p.src1_value;
        break;
      case RtmOp::kGetFlags:
        a.respond = true;
        a.response.type = msg::Response::Type::kFlags;
        a.response.seq = p.di.seq;
        a.response.code = p.src_flag_value;
        break;
      case RtmOp::kSync:
        a.respond = true;
        a.response.type = msg::Response::Type::kSyncDone;
        a.response.seq = p.di.seq;
        break;
    }
    return a;
  }

  ExecPacket held_;
  bool have_ = false;
  bool completing_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace fpgafu::rtm

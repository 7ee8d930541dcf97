#pragma once

#include <cstdint>

#include "isa/arith.hpp"
#include "isa/fp32.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/shift.hpp"
#include "isa/trig.hpp"
#include "rtm/rtm.hpp"
#include "util/rng.hpp"

namespace fpgafu::testing {

/// Random-program generator for differential testing of the RTM against
/// the sequential reference model.
struct ProgramGenOptions {
  std::size_t instructions = 100;
  bool include_errors = false;   ///< sprinkle bad register numbers / codes
  bool include_sync = true;
  unsigned get_percent = 20;     ///< share of GET/GETF observation points
};

inline isa::Program random_program(const rtm::RtmConfig& cfg, std::uint64_t seed,
                                   const ProgramGenOptions& opt = {}) {
  Xoshiro256 rng(seed);
  isa::Program p;
  auto data_reg = [&] {
    return static_cast<isa::RegNum>(rng.below(cfg.data_regs));
  };
  auto flag_reg = [&] {
    return static_cast<isa::RegNum>(rng.below(cfg.flag_regs));
  };
  auto bad_data_reg = [&] {
    return static_cast<isa::RegNum>(cfg.data_regs + rng.below(4));
  };
  // PUT values on both sides of 2^32, so emit_put takes both forms: the
  // one-word PUTI and the PUT plus inline data word.
  auto put_value = [&]() -> isa::Word {
    switch (rng.below(4)) {
      case 0:
        return rng.next() >> 32;
      case 1:
        return (isa::Word{1} << 32) - 1 + rng.below(2);
      default:
        return rng.next();
    }
  };

  // Seed a few registers so early reads see non-zero data.
  for (int i = 0; i < 4; ++i) {
    p.emit_put(data_reg(), put_value());
  }

  for (std::size_t i = 0; i < opt.instructions; ++i) {
    const std::uint64_t roll = rng.below(100);
    isa::Instruction inst;
    if (opt.include_errors && rng.chance(1, 17)) {
      // Fault injection: bad destination or unknown function code.
      const std::uint64_t fault = rng.below(3);
      if (fault == 0) {
        inst.function = isa::fc::kArith;
        inst.variety = isa::arith::variety(isa::arith::Op::kAdd);
        inst.dst1 = bad_data_reg();
        inst.src1 = data_reg();
        inst.src2 = data_reg();
      } else if (fault == 1) {
        inst.function = isa::fc::kRtm;
        inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kPutImm);
        inst.dst1 = bad_data_reg();
        inst.set_imm32(static_cast<std::uint32_t>(rng.next()));
      } else {
        inst.function = 0x5a;  // nothing attached here
        inst.dst1 = data_reg();
      }
      p.emit(inst);
      continue;
    }
    if (roll < opt.get_percent) {
      inst.function = isa::fc::kRtm;
      if (rng.chance(3, 5)) {
        inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
        inst.src1 = data_reg();
        p.emit(inst);
      } else if (rng.chance(1, 2)) {
        inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGetFlags);
        inst.src_flag = flag_reg();
        p.emit(inst);
      } else {
        // Burst read, sometimes deliberately running off the end of the
        // register file (per-subread error responses).
        const isa::RegNum base = data_reg();
        const auto count = static_cast<std::uint8_t>(rng.range(1, 6));
        p.emit_get_vec(base, count);
      }
    } else if (roll < opt.get_percent + 10) {
      if (rng.chance(1, 3)) {
        // Burst write of 1..6 words (kept within range unless fault
        // injection is on).
        std::vector<isa::Word> values(rng.range(1, 6));
        for (auto& v : values) {
          v = rng.next();
        }
        isa::RegNum base = data_reg();
        if (!opt.include_errors &&
            base + values.size() > cfg.data_regs) {
          base = 0;
        }
        p.emit_put_vec(base, values);
      } else {
        p.emit_put(data_reg(), put_value());
      }
    } else if (roll < opt.get_percent + 20) {
      inst.function = isa::fc::kRtm;
      switch (rng.below(4)) {
        case 0:
          inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kCopy);
          inst.dst1 = data_reg();
          inst.src1 = data_reg();
          break;
        case 1:
          inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kCopyFlags);
          inst.dst_flag = flag_reg();
          inst.src_flag = flag_reg();
          break;
        case 2:
          inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kPutImm);
          inst.dst1 = data_reg();
          inst.set_imm32(static_cast<std::uint32_t>(rng.next()));
          break;
        default:
          inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kPutFlags);
          inst.dst_flag = flag_reg();
          inst.aux = static_cast<std::uint8_t>(rng.below(32));
          break;
      }
      p.emit(inst);
    } else if (opt.include_sync && roll < opt.get_percent + 23) {
      inst.function = isa::fc::kRtm;
      inst.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
      p.emit(inst);
    } else {
      // Functional-unit op: arithmetic, logic, shift, mul/div, float or trig.
      const std::uint64_t unit = rng.below(6);
      if (unit == 0) {
        inst.function = isa::fc::kArith;
        inst.variety = isa::arith::variety(
            isa::arith::kAllOps[rng.below(isa::arith::kAllOps.size())]);
      } else if (unit == 1) {
        inst.function = isa::fc::kLogic;
        inst.variety = isa::logic::variety(
            isa::logic::kAllOps[rng.below(isa::logic::kAllOps.size())]);
      } else if (unit == 2) {
        inst.function = isa::fc::kShift;
        inst.variety = isa::shift::variety(
            isa::shift::kAllOps[rng.below(isa::shift::kAllOps.size())]);
      } else if (unit == 3) {
        inst.function = isa::fc::kMulDiv;
        inst.variety = isa::muldiv::variety(
            isa::muldiv::kAllOps[rng.below(isa::muldiv::kAllOps.size())]);
        // DIVMOD's second destination travels in aux; sometimes collide it
        // with dst1 (a fault the dispatcher must report).
        inst.aux = static_cast<std::uint8_t>(data_reg());
      } else if (unit == 4) {
        inst.function = isa::fc::kFloat;
        inst.variety = isa::fp32::variety(
            isa::fp32::kAllOps[rng.below(isa::fp32::kAllOps.size())]);
      } else {
        inst.function = isa::fc::kTrig;
        inst.variety = isa::trig::variety(
            isa::trig::kAllOps[rng.below(isa::trig::kAllOps.size())]);
      }
      inst.dst1 = data_reg();
      inst.src1 = data_reg();
      inst.src2 = data_reg();
      inst.src_flag = flag_reg();
      inst.dst_flag = flag_reg();
      p.emit(inst);
    }
  }
  // Observe the final architectural state: read back every register.
  for (std::size_t r = 0; r < cfg.data_regs; ++r) {
    isa::Instruction get;
    get.function = isa::fc::kRtm;
    get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
    get.src1 = static_cast<isa::RegNum>(r);
    p.emit(get);
  }
  for (std::size_t r = 0; r < cfg.flag_regs; ++r) {
    isa::Instruction getf;
    getf.function = isa::fc::kRtm;
    getf.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGetFlags);
    getf.src_flag = static_cast<isa::RegNum>(r);
    p.emit(getf);
  }
  return p;
}

}  // namespace fpgafu::testing

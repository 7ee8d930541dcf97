// Every RTM primitive, read off the one primitive table (isa/rtm_ops.hpp):
// its spelling assembles to its row, and on an operand grid at two
// register-file sizes host::predict() — which reads the row — names exactly
// the responses and register writes that the System produces under every
// settle kernel and that the ReferenceModel produces.  The System's RTM
// (src/rtm/) decodes, validates and dispatches with its own logic, so this
// pins that hardware model to the table.  A row added to the table is
// covered here unedited.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/framing.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"

namespace fpgafu::top {
namespace {

TEST(RtmOps, TheTableIsIndexedByVarietyAndSpeltByTheAssembler) {
  for (std::size_t v = 0; v < 256; ++v) {
    const auto variety = static_cast<isa::VarietyCode>(v);
    const isa::RtmPrimitive* row = isa::rtm_primitive(variety);
    if (row == nullptr) {
      EXPECT_GE(v, isa::kRtmOps.size());
      continue;
    }
    SCOPED_TRACE(std::string(row->mnemonic));
    EXPECT_EQ(static_cast<std::size_t>(row->op), v);
    EXPECT_EQ(isa::to_string(row->op), row->mnemonic);
    // Its disassembly re-assembles to it, payload included; with no
    // operand field set it is spelt by the row's mnemonic.
    for (const unsigned aux : {0u, 2u}) {
      isa::Instruction inst = isa::rtm_instruction(row->op);
      inst.aux = static_cast<std::uint8_t>(aux);
      isa::Program p;
      p.emit(inst);
      for (unsigned k = 0; k < isa::count(row->payload, inst); ++k) {
        p.emit_raw(isa::Word{1} << 40 | k);
      }
      EXPECT_EQ(isa::group_words(inst, p.size_words()), p.size_words());
      EXPECT_EQ(p.expected_responses(), isa::count(row->responses, inst));
      const auto lines = isa::disassemble(p.words());
      if (aux == 0) {
        EXPECT_EQ(lines.front().substr(0, lines.front().find(' ')),
                  row->mnemonic);
      }
      std::string text;
      for (const std::string& line : lines) {
        text += line + "\n";
      }
      EXPECT_EQ(isa::Assembler::assemble(text).words(), p.words());
    }
  }
}

/// A register grid for a file of `size` registers: the first and last
/// register in range and the first one beyond it.
std::array<isa::RegNum, 3> reg_grid(std::size_t size) {
  return {0, static_cast<isa::RegNum>(size - 1),
          static_cast<isa::RegNum>(size)};
}

/// Every instruction of RTM variety `variety` on the operand grid: each of
/// dst1, src1, dst_flag and src_flag over its file's register grid, and aux
/// 0, 1 and 255.  With `diagonal`, the four fields move together.
std::vector<isa::Instruction> operand_grid(isa::VarietyCode variety,
                                           const rtm::RtmConfig& cfg,
                                           bool diagonal) {
  const auto data = reg_grid(cfg.data_regs);
  const auto flags = reg_grid(cfg.flag_regs);
  std::vector<isa::Instruction> out;
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t s = 0; s < 3; ++s) {
      for (std::size_t df = 0; df < 3; ++df) {
        for (std::size_t sf = 0; sf < 3; ++sf) {
          if (diagonal && !(d == s && s == df && df == sf)) {
            continue;
          }
          for (const unsigned aux : {0u, 1u, 255u}) {
            isa::Instruction inst;
            inst.function = isa::fc::kRtm;
            inst.variety = variety;
            inst.dst1 = data[d];
            inst.src1 = data[s];
            inst.dst_flag = flags[df];
            inst.src_flag = flags[sf];
            inst.aux = static_cast<std::uint8_t>(aux);
            out.push_back(inst);
          }
        }
      }
    }
  }
  return out;
}

/// The cases: the full operand grid for every variety up to 0x0f (every row
/// and five unrowed ones), the diagonal of the grid for every other.
std::vector<isa::Instruction> cases(const rtm::RtmConfig& cfg) {
  std::vector<isa::Instruction> out;
  for (unsigned v = 0; v < 256; ++v) {
    const auto grid =
        operand_grid(static_cast<isa::VarietyCode>(v), cfg, v >= 0x10);
    out.insert(out.end(), grid.begin(), grid.end());
  }
  return out;
}

void feed(host::ReferenceModel& model, const isa::Program& p) {
  for (const isa::Word w : p.words()) {
    model.feed(w);
  }
}

/// The contents of both register files.
struct Files {
  std::vector<isa::Word> data;
  std::vector<isa::FlagWord> flags;
  bool operator==(const Files&) const = default;
};

Files snapshot(System& sys) {
  Files out;
  for (std::size_t r = 0; r < sys.rtm().regs().size(); ++r) {
    out.data.push_back(sys.rtm().regs().read(static_cast<isa::RegNum>(r)));
  }
  for (std::size_t f = 0; f < sys.rtm().flags().size(); ++f) {
    out.flags.push_back(sys.rtm().flags().read(static_cast<isa::RegNum>(f)));
  }
  return out;
}

Files snapshot(const host::ReferenceModel& model, const rtm::RtmConfig& cfg) {
  Files out;
  for (std::size_t r = 0; r < cfg.data_regs; ++r) {
    out.data.push_back(model.reg(static_cast<isa::RegNum>(r)));
  }
  for (std::size_t f = 0; f < cfg.flag_regs; ++f) {
    out.flags.push_back(model.flag_reg(static_cast<isa::RegNum>(f)));
  }
  return out;
}

/// Registers whose value differs between two snapshots of one file.
template <typename T>
host::GroupPrediction::RegSet changed(const std::vector<T>& before,
                                      const std::vector<T>& after) {
  host::GroupPrediction::RegSet out;
  for (std::size_t r = 0; r < before.size(); ++r) {
    out.set(r, before[r] != after[r]);
  }
  return out;
}

/// A program loading `seed` into every register whose value in `now`
/// differs from it.
isa::Program restore(const Files& seed, const Files& now) {
  isa::Program p;
  for (std::size_t r = 0; r < seed.data.size(); ++r) {
    if (now.data[r] != seed.data[r]) {
      p.emit_put(static_cast<isa::RegNum>(r), seed.data[r]);
    }
  }
  for (std::size_t f = 0; f < seed.flags.size(); ++f) {
    if (now.flags[f] != seed.flags[f]) {
      isa::Instruction putf = isa::rtm_instruction(isa::RtmOp::kPutFlags);
      putf.dst_flag = static_cast<isa::RegNum>(f);
      putf.aux = seed.flags[f];
      p.emit(putf);
    }
  }
  return p;
}

// The second size holds a 255-word burst, so PUTV and GETV of aux 255 also
// run in range.
TEST(RtmOps, PredictEqualsTheSystemAndTheReferenceModelOnTheOperandGrid) {
  for (const auto& [data_regs, flag_regs] :
       {std::pair<std::size_t, std::size_t>{4, 2}, {255, 8}}) {
    SystemConfig cfg;
    cfg.rtm.data_regs = data_regs;
    cfg.rtm.flag_regs = flag_regs;
    // Distinct register contents, none equal to a payload word, so that a
    // write shows as a change; each case starts from them.
    Files seed;
    for (std::size_t r = 0; r < data_regs; ++r) {
      seed.data.push_back(0xa5000000u | r);
    }
    for (std::size_t f = 0; f < flag_regs; ++f) {
      seed.flags.push_back(static_cast<isa::FlagWord>(0x80 | f));
    }
    const Files zero{std::vector<isa::Word>(data_regs),
                     std::vector<isa::FlagWord>(flag_regs)};
    for (const sim::Simulator::Kernel kernel : sim::Simulator::kAllKernels) {
      SCOPED_TRACE(std::to_string(data_regs) + " registers, kernel " +
                   sim::Simulator::kernel_name(kernel));
      System sys(cfg);
      sys.simulator().set_kernel(kernel);
      host::Coprocessor copro(sys);
      host::ReferenceModel model(cfg.rtm);
      const isa::Program setup = restore(seed, zero);
      ASSERT_TRUE(copro.call(setup).empty());
      feed(model, setup);
      std::size_t n = 0;
      for (const isa::Instruction& inst : cases(cfg.rtm)) {
        SCOPED_TRACE(isa::to_string(inst));
        ++n;
        // The instruction, and its payload words when its row has any.
        isa::Program p;
        p.emit(inst);
        const isa::RtmPrimitive* row = isa::rtm_primitive(inst);
        for (unsigned k = 0; row != nullptr && k < isa::count(row->payload, inst);
             ++k) {
          p.emit_raw(0x5a000000u | n << 8 | k);
        }
        const host::GroupPrediction want =
            host::predict(inst, sys.rtm().config(), sys.rtm().table());
        const std::uint64_t data_gen = sys.rtm().regs().generation();
        const std::uint64_t flag_gen = sys.rtm().flags().generation();
        const std::size_t from = model.responses().size();
        feed(model, p);
        const std::vector<msg::Response> got = copro.call(p);

        // Responses: as many as predicted, the reference model's bytes, and
        // the row's reply type on each that is not an error.
        ASSERT_EQ(got.size(), want.count);
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               model.responses().begin() +
                                   static_cast<std::ptrdiff_t>(from),
                               model.responses().end()));
        for (const msg::Response& r : got) {
          if (r.type != msg::Response::Type::kError) {
            ASSERT_NE(row, nullptr);
            EXPECT_EQ(r.type, static_cast<msg::Response::Type>(row->reply));
          }
        }

        // Writes: the reference model's contents; every register that
        // changed is in the predicted write set, and each file took exactly
        // one write per predicted register.
        const Files after = snapshot(sys);
        ASSERT_EQ(after, snapshot(model, cfg.rtm));
        const auto none = host::GroupPrediction::RegSet{};
        ASSERT_EQ(changed(seed.data, after.data) & ~want.data_writes, none);
        ASSERT_EQ(changed(seed.flags, after.flags) & ~want.flag_writes, none);
        ASSERT_EQ(sys.rtm().regs().generation() - data_gen,
                  want.data_writes.count());
        ASSERT_EQ(sys.rtm().flags().generation() - flag_gen,
                  want.flag_writes.count());

        const isa::Program back = restore(seed, after);
        ASSERT_TRUE(copro.call(back).empty());
        feed(model, back);
      }
    }
  }
}

}  // namespace
}  // namespace fpgafu::top

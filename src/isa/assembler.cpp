#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>

#include "isa/arith.hpp"
#include "isa/fp32.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/shift.hpp"
#include "isa/trig.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace fpgafu::isa {
namespace {

/// Which instruction field an operand slot fills.
enum class Slot {
  kDst,       // rN -> dst1
  kDst2,      // rN -> aux (second data destination of dual-output ops)
  kSrc1,      // rN -> src1
  kSrc2,      // rN -> src2
  kSrcFlag,   // fN -> src_flag
  kDstFlag,   // fN -> dst_flag
  kImmAux,    // imm8 -> aux
  kImm32,     // imm32 -> bits [31:0] (PUTI)
  kImmWord,   // #imm64 -> Program::emit_put
};

struct Signature {
  FunctionCode function;
  VarietyCode variety;
  std::vector<Slot> required;
  std::vector<Slot> optional;  // may be present as a trailing suffix
};

const std::map<std::string, Signature, std::less<>>& mnemonic_table() {
  static const auto* table = [] {
    auto* t = new std::map<std::string, Signature, std::less<>>;
    auto rtm = [&](std::string name, RtmOp op, std::vector<Slot> req) {
      (*t)[std::move(name)] =
          Signature{fc::kRtm, static_cast<VarietyCode>(op), std::move(req), {}};
    };
    rtm("NOP", RtmOp::kNop, {});
    rtm("SYNC", RtmOp::kSync, {});
    rtm("COPY", RtmOp::kCopy, {Slot::kDst, Slot::kSrc1});
    rtm("COPYF", RtmOp::kCopyFlags, {Slot::kDstFlag, Slot::kSrcFlag});
    rtm("PUT", RtmOp::kPut, {Slot::kDst, Slot::kImmWord});
    rtm("PUTI", RtmOp::kPutImm, {Slot::kDst, Slot::kImm32});
    rtm("PUTF", RtmOp::kPutFlags, {Slot::kDstFlag, Slot::kImmAux});
    rtm("GET", RtmOp::kGet, {Slot::kSrc1});
    rtm("GETF", RtmOp::kGetFlags, {Slot::kSrcFlag});
    rtm("PUTV", RtmOp::kPutVec, {Slot::kDst, Slot::kImmAux});
    rtm("GETV", RtmOp::kGetVec, {Slot::kSrc1, Slot::kImmAux});

    auto unit = [&](std::string name, FunctionCode function, VarietyCode v,
                    std::vector<Slot> req) {
      (*t)[std::move(name)] =
          Signature{function, v, std::move(req), {Slot::kDstFlag}};
    };
    using arith::Op;
    const std::vector<Slot> dab = {Slot::kDst, Slot::kSrc1, Slot::kSrc2};
    const std::vector<Slot> dabf = {Slot::kDst, Slot::kSrc1, Slot::kSrc2,
                                    Slot::kSrcFlag};
    unit("ADD", fc::kArith, arith::variety(Op::kAdd), dab);
    unit("ADC", fc::kArith, arith::variety(Op::kAdc), dabf);
    unit("SUB", fc::kArith, arith::variety(Op::kSub), dab);
    unit("SBB", fc::kArith, arith::variety(Op::kSbb), dabf);
    unit("INC", fc::kArith, arith::variety(Op::kInc), {Slot::kDst, Slot::kSrc1});
    unit("DEC", fc::kArith, arith::variety(Op::kDec), {Slot::kDst, Slot::kSrc1});
    unit("NEG", fc::kArith, arith::variety(Op::kNeg), {Slot::kDst, Slot::kSrc2});
    unit("CMP", fc::kArith, arith::variety(Op::kCmp), {Slot::kSrc1, Slot::kSrc2});
    unit("CMPB", fc::kArith, arith::variety(Op::kCmpb),
         {Slot::kSrc1, Slot::kSrc2, Slot::kSrcFlag});

    for (logic::Op op : logic::kAllOps) {
      std::vector<Slot> req;
      switch (op) {
        case logic::Op::kNot:
          req = {Slot::kDst, Slot::kSrc2};
          break;
        case logic::Op::kPass:
          req = {Slot::kDst, Slot::kSrc1};
          break;
        case logic::Op::kClear:
        case logic::Op::kSet:
          req = {Slot::kDst};
          break;
        default:
          req = dab;
          break;
      }
      unit(std::string(logic::to_string(op)), fc::kLogic, logic::variety(op),
           std::move(req));
    }
    for (shift::Op op : shift::kAllOps) {
      unit(std::string(shift::to_string(op)), fc::kShift, shift::variety(op),
           dab);
    }
    for (muldiv::Op op : muldiv::kAllOps) {
      unit(std::string(muldiv::to_string(op)), fc::kMulDiv,
           muldiv::variety(op),
           op == muldiv::Op::kDivMod
               // DIVMOD rQ, rR, rA, rB: quotient, remainder, dividend,
               // divisor (the remainder register travels in aux).
               ? std::vector<Slot>{Slot::kDst, Slot::kDst2, Slot::kSrc1,
                                   Slot::kSrc2}
               : dab);
    }
    for (fp32::Op op : fp32::kAllOps) {
      unit(std::string(fp32::to_string(op)), fc::kFloat, fp32::variety(op),
           op == fp32::Op::kFcmp
               ? std::vector<Slot>{Slot::kSrc1, Slot::kSrc2}
               : dab);
    }
    for (trig::Op op : trig::kAllOps) {
      unit(std::string(trig::to_string(op)), fc::kTrig, trig::variety(op),
           {Slot::kDst, Slot::kSrc1});
    }
    return t;
  }();
  return *table;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::uint64_t parse_number(std::string_view token, const std::string& ctx) {
  token = trim(token);
  check(!token.empty(), ctx + ": empty numeric literal");
  int base = 10;
  if (token.size() > 2 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    token.remove_prefix(2);
    base = 16;
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, base);
  check(ec == std::errc{} && ptr == token.data() + token.size(),
        ctx + ": bad numeric literal");
  return value;
}

RegNum parse_reg(std::string_view token, char prefix, const std::string& ctx) {
  token = trim(token);
  check(token.size() >= 2 && (token[0] == prefix ||
                              token[0] == std::toupper(prefix)),
        ctx + ": expected '" + prefix + "N' operand, got '" +
            std::string(token) + "'");
  const std::uint64_t n = parse_number(token.substr(1), ctx);
  check(n <= 0xff, ctx + ": register number out of range");
  return static_cast<RegNum>(n);
}

std::vector<std::string_view> split_operands(std::string_view rest) {
  std::vector<std::string_view> out;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    out.push_back(trim(rest.substr(0, comma)));
    if (comma == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(comma + 1);
  }
  // A trailing comma or doubled comma yields an empty token -> error later.
  return out;
}

}  // namespace

void Assembler::assemble_line(std::string_view line, Program& program) {
  // Strip comments: ';' always starts one; '#' does too unless it begins a
  // numeric literal (e.g. `PUT r1, #0xff`).
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == ';' ||
        (c == '#' && (i + 1 >= line.size() ||
                      !std::isdigit(static_cast<unsigned char>(line[i + 1]))))) {
      line = line.substr(0, i);
      break;
    }
  }
  line = trim(line);
  if (line.empty()) {
    return;
  }

  // Mnemonic = leading word, uppercased.
  std::size_t sp = 0;
  while (sp < line.size() &&
         !std::isspace(static_cast<unsigned char>(line[sp]))) {
    ++sp;
  }
  std::string mnemonic(line.substr(0, sp));
  std::transform(mnemonic.begin(), mnemonic.end(), mnemonic.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  // `.word #imm64` emits a raw data word (PUTV burst payloads).
  if (mnemonic == ".WORD") {
    std::string_view t = trim(line.substr(sp));
    check(!t.empty() && t[0] == '#', ".word: literal must start with '#'");
    t.remove_prefix(1);
    program.emit_raw(parse_number(t, ".word"));
    return;
  }
  const auto& table = mnemonic_table();
  const auto it = table.find(mnemonic);
  check(it != table.end(), "unknown mnemonic '" + mnemonic + "'");
  const Signature& sig = it->second;

  const auto operands = split_operands(trim(line.substr(sp)));
  check(operands.size() >= sig.required.size() &&
            operands.size() <= sig.required.size() + sig.optional.size(),
        mnemonic + ": expected " + std::to_string(sig.required.size()) +
            (sig.optional.empty()
                 ? ""
                 : ".." + std::to_string(sig.required.size() +
                                         sig.optional.size())) +
            " operands, got " + std::to_string(operands.size()));

  Instruction inst;
  inst.function = sig.function;
  inst.variety = sig.variety;
  std::optional<Word> inline_word;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    const Slot slot = i < sig.required.size()
                          ? sig.required[i]
                          : sig.optional[i - sig.required.size()];
    const std::string_view tok = operands[i];
    switch (slot) {
      case Slot::kDst:
        inst.dst1 = parse_reg(tok, 'r', mnemonic);
        break;
      case Slot::kDst2:
        inst.aux = parse_reg(tok, 'r', mnemonic);
        break;
      case Slot::kSrc1:
        inst.src1 = parse_reg(tok, 'r', mnemonic);
        break;
      case Slot::kSrc2:
        inst.src2 = parse_reg(tok, 'r', mnemonic);
        break;
      case Slot::kSrcFlag:
        inst.src_flag = parse_reg(tok, 'f', mnemonic);
        break;
      case Slot::kDstFlag:
        inst.dst_flag = parse_reg(tok, 'f', mnemonic);
        break;
      case Slot::kImmAux: {
        const std::uint64_t v = parse_number(tok, mnemonic);
        check(v <= 0xff, mnemonic + ": immediate exceeds 8 bits");
        inst.aux = static_cast<std::uint8_t>(v);
        break;
      }
      case Slot::kImm32: {
        const std::uint64_t v = parse_number(tok, mnemonic);
        check(v <= 0xffffffffu, mnemonic + ": immediate exceeds 32 bits");
        inst.set_imm32(static_cast<std::uint32_t>(v));
        break;
      }
      case Slot::kImmWord: {
        std::string_view t = tok;
        check(!t.empty() && t[0] == '#',
              mnemonic + ": 64-bit literal must start with '#'");
        t.remove_prefix(1);
        inline_word = parse_number(t, mnemonic);
        break;
      }
    }
  }
  if (inline_word.has_value()) {
    program.emit_put(inst.dst1, *inline_word);  // PUTI when the value fits
    return;
  }
  program.emit(inst);
}

Program Assembler::assemble(std::string_view source) {
  Program program;
  std::size_t line_no = 1;
  std::size_t start = 0;
  while (start <= source.size()) {
    std::size_t end = source.find('\n', start);
    if (end == std::string_view::npos) {
      end = source.size();
    }
    try {
      assemble_line(source.substr(start, end - start), program);
    } catch (const SimError& e) {
      throw SimError("line " + std::to_string(line_no) + ": " + e.what());
    }
    start = end + 1;
    ++line_no;
  }
  return program;
}

namespace {

/// Find a named operation matching a decoded variety code.
std::string unit_mnemonic(const Instruction& inst) {
  if (inst.function == fc::kArith) {
    for (arith::Op op : arith::kAllOps) {
      if (arith::variety(op) == inst.variety) {
        return std::string(arith::to_string(op));
      }
    }
  } else if (inst.function == fc::kLogic) {
    for (logic::Op op : logic::kAllOps) {
      if (logic::variety(op) == inst.variety) {
        return std::string(logic::to_string(op));
      }
    }
  } else if (inst.function == fc::kShift) {
    for (shift::Op op : shift::kAllOps) {
      if (shift::variety(op) == inst.variety) {
        return std::string(shift::to_string(op));
      }
    }
  } else if (inst.function == fc::kMulDiv) {
    for (muldiv::Op op : muldiv::kAllOps) {
      if (muldiv::variety(op) == inst.variety) {
        return std::string(muldiv::to_string(op));
      }
    }
  } else if (inst.function == fc::kFloat) {
    for (fp32::Op op : fp32::kAllOps) {
      if (fp32::variety(op) == inst.variety) {
        return std::string(fp32::to_string(op));
      }
    }
  } else if (inst.function == fc::kTrig) {
    for (trig::Op op : trig::kAllOps) {
      if (trig::variety(op) == inst.variety) {
        return std::string(trig::to_string(op));
      }
    }
  }
  return {};
}

/// Render one operand slot from a decoded instruction.
std::string render_slot(Slot slot, const Instruction& inst) {
  char buf[16];
  switch (slot) {
    case Slot::kDst:
      std::snprintf(buf, sizeof buf, "r%u", inst.dst1);
      break;
    case Slot::kDst2:
      std::snprintf(buf, sizeof buf, "r%u", inst.aux);
      break;
    case Slot::kSrc1:
      std::snprintf(buf, sizeof buf, "r%u", inst.src1);
      break;
    case Slot::kSrc2:
      std::snprintf(buf, sizeof buf, "r%u", inst.src2);
      break;
    case Slot::kSrcFlag:
      std::snprintf(buf, sizeof buf, "f%u", inst.src_flag);
      break;
    case Slot::kDstFlag:
      std::snprintf(buf, sizeof buf, "f%u", inst.dst_flag);
      break;
    case Slot::kImmAux:
      std::snprintf(buf, sizeof buf, "%u", inst.aux);
      break;
    case Slot::kImm32:
      std::snprintf(buf, sizeof buf, "%u", inst.imm32());
      break;
    case Slot::kImmWord:
      return "#<next-word>";
  }
  return buf;
}

}  // namespace

std::string disassemble_one(const Instruction& inst) {
  std::string name;
  if (inst.function == fc::kRtm) {
    bool known = false;
    switch (static_cast<RtmOp>(inst.variety)) {
      case RtmOp::kNop:
      case RtmOp::kCopy:
      case RtmOp::kCopyFlags:
      case RtmOp::kPut:
      case RtmOp::kPutFlags:
      case RtmOp::kPutImm:
      case RtmOp::kGet:
      case RtmOp::kGetFlags:
      case RtmOp::kSync:
      case RtmOp::kPutVec:
      case RtmOp::kGetVec:
        known = true;
        break;
    }
    if (known) {
      name = std::string(to_string(static_cast<RtmOp>(inst.variety)));
    }
  } else {
    name = unit_mnemonic(inst);
  }
  if (name.empty()) {
    return ".word " + to_string(inst);
  }
  // Render operands following the mnemonic's own signature, so that
  // re-assembling the output reproduces the identical encoding.
  const Signature& sig = mnemonic_table().at(name);
  std::string out = name;
  bool first = true;
  auto append = [&](Slot slot) {
    out += first ? " " : ", ";
    first = false;
    out += render_slot(slot, inst);
  };
  for (const Slot slot : sig.required) {
    append(slot);
  }
  for (const Slot slot : sig.optional) {
    append(slot);
  }
  return out;
}

std::vector<std::string> disassemble(const std::vector<Word>& words) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const Instruction inst = Instruction::decode(words[i]);
    if (inst.function == fc::kRtm &&
        static_cast<RtmOp>(inst.variety) == RtmOp::kPut) {
      check(i + 1 < words.size(), "PUT at end of stream has no data word");
      char buf[64];
      std::snprintf(buf, sizeof buf, "PUT r%u, #0x%llx", inst.dst1,
                    static_cast<unsigned long long>(words[i + 1]));
      out.emplace_back(buf);
      ++i;
      continue;
    }
    if (inst.function == fc::kRtm &&
        static_cast<RtmOp>(inst.variety) == RtmOp::kPutVec) {
      check(i + inst.aux < words.size(),
            "PUTV burst truncated at end of stream");
      out.push_back(disassemble_one(inst));
      char buf[48];
      for (unsigned k = 0; k < inst.aux; ++k) {
        std::snprintf(buf, sizeof buf, ".word #0x%llx",
                      static_cast<unsigned long long>(words[i + 1 + k]));
        out.emplace_back(buf);
      }
      i += inst.aux;
      continue;
    }
    out.push_back(disassemble_one(inst));
  }
  return out;
}

}  // namespace fpgafu::isa

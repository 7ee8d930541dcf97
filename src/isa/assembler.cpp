#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>

#include "isa/stock_units.hpp"
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

/// The operand slots of an instruction, in assembler order.
std::vector<Slot> slots(Operands form) {
  switch (form) {
    case Operands::kDab: return {Slot::kDst, Slot::kSrc1, Slot::kSrc2};
    case Operands::kDabS:
      return {Slot::kDst, Slot::kSrc1, Slot::kSrc2, Slot::kSrcFlag};
    case Operands::kDa: return {Slot::kDst, Slot::kSrc1};
    case Operands::kDb: return {Slot::kDst, Slot::kSrc2};
    case Operands::kAb: return {Slot::kSrc1, Slot::kSrc2};
    case Operands::kAbS: return {Slot::kSrc1, Slot::kSrc2, Slot::kSrcFlag};
    case Operands::kD: return {Slot::kDst};
    case Operands::kQRab:
      return {Slot::kDst, Slot::kDst2, Slot::kSrc1, Slot::kSrc2};
    case Operands::kNone: return {};
    case Operands::kA: return {Slot::kSrc1};
    case Operands::kS: return {Slot::kSrcFlag};
    case Operands::kFS: return {Slot::kDstFlag, Slot::kSrcFlag};
    case Operands::kDw: return {Slot::kDst, Slot::kImmWord};
    case Operands::kDi: return {Slot::kDst, Slot::kImm32};
    case Operands::kDn: return {Slot::kDst, Slot::kImmAux};
    case Operands::kAn: return {Slot::kSrc1, Slot::kImmAux};
    case Operands::kFn: return {Slot::kDstFlag, Slot::kImmAux};
  }
  return {};
}

const std::map<std::string, Signature, std::less<>>& mnemonic_table() {
  static const auto* table = [] {
    auto* t = new std::map<std::string, Signature, std::less<>>;
    for (const RtmPrimitive& row : kRtmOps) {
      (*t)[std::string(row.mnemonic)] = Signature{
          fc::kRtm, static_cast<VarietyCode>(row.op), slots(row.operands), {}};
    }
    for (const StockUnit& unit : kStockUnits) {
      for (const StockOp& op : unit.ops) {
        (*t)[std::string(op.mnemonic)] = Signature{
            unit.code, op.variety, slots(op.operands), {Slot::kDstFlag}};
      }
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
  std::size_t line_no = 0;
  auto at_line = [&](auto&& step) {
    try {
      step();
    } catch (const SimError& e) {
      throw SimError("line " + std::to_string(line_no) + ": " + e.what());
    }
  };
  std::size_t start = 0;
  while (start <= source.size()) {
    std::size_t end = source.find('\n', start);
    if (end == std::string_view::npos) {
      end = source.size();
    }
    ++line_no;
    at_line([&] { assemble_line(source.substr(start, end - start), program); });
    start = end + 1;
  }
  // The input must not end inside a PUT/PUTV payload.
  at_line([&] { program.check_complete(); });
  return program;
}

namespace {

/// The mnemonic spelling `inst`'s function and variety, or empty when none
/// does.
std::string_view mnemonic(const Instruction& inst) {
  if (inst.function == fc::kRtm) {
    const RtmPrimitive* row = rtm_primitive(inst.variety);
    return row != nullptr ? row->mnemonic : std::string_view{};
  }
  if (const StockUnit* unit = stock_unit(inst.function)) {
    for (const StockOp& op : unit->ops) {
      if (op.variety == inst.variety) {
        return op.mnemonic;
      }
    }
  }
  return {};
}

/// `#0x...`: a 64-bit literal.
std::string literal(Word word) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "#0x%llx",
                static_cast<unsigned long long>(word));
  return buf;
}

/// A `.word` line carrying `word` verbatim.
std::string raw_word(Word word) { return ".word " + literal(word); }

/// Render one operand slot from a decoded instruction; a PUT's `#imm64`
/// reads `payload` (its data word), when known.
std::string render_slot(Slot slot, const Instruction& inst,
                        const Word* payload) {
  switch (slot) {
    case Slot::kDst: return "r" + std::to_string(inst.dst1);
    case Slot::kDst2: return "r" + std::to_string(inst.aux);
    case Slot::kSrc1: return "r" + std::to_string(inst.src1);
    case Slot::kSrc2: return "r" + std::to_string(inst.src2);
    case Slot::kSrcFlag: return "f" + std::to_string(inst.src_flag);
    case Slot::kDstFlag: return "f" + std::to_string(inst.dst_flag);
    case Slot::kImmAux: return std::to_string(inst.aux);
    case Slot::kImm32: return std::to_string(inst.imm32());
    case Slot::kImmWord:
      return payload != nullptr ? literal(*payload) : "#<next-word>";
  }
  return {};
}

/// The statement spelling `inst` by its mnemonic's own signature, or a
/// `.word` line (with the decoded fields as a comment) when no mnemonic
/// does.
std::string render(const Instruction& inst, const Word* payload) {
  const std::string_view name = mnemonic(inst);
  if (name.empty()) {
    return raw_word(inst.encode()) + "  ; " + to_string(inst);
  }
  const Signature& sig = mnemonic_table().find(name)->second;
  std::string out(name);
  bool first = true;
  auto append = [&](Slot slot) {
    out += first ? " " : ", ";
    first = false;
    out += render_slot(slot, inst, payload);
  };
  for (const Slot slot : sig.required) {
    append(slot);
  }
  for (const Slot slot : sig.optional) {
    append(slot);
  }
  return out;
}

}  // namespace

std::string disassemble_one(const Instruction& inst) {
  return render(inst, nullptr);
}

std::vector<std::string> disassemble(const std::vector<Word>& words) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < words.size();) {
    const Instruction inst = Instruction::decode(words[i]);
    const std::size_t group = group_words(inst, words.size() - i);
    const auto first = words.begin() + static_cast<std::ptrdiff_t>(i);
    // A PUT's line takes its data word; other payload words follow as
    // `.word` lines.  A line that would re-assemble to other words (a
    // two-word PUT of a value PUTI holds, a field its operands do not name)
    // gives way to the raw instruction word, so every stream round-trips.
    std::string line = render(inst, group > 1 ? &words[i + 1] : nullptr);
    Program again;
    Assembler::assemble_line(line, again);
    std::size_t taken = again.size_words();
    if (taken > group ||
        !std::equal(again.words().begin(), again.words().end(), first)) {
      line = raw_word(words[i]) + "  ; " + line;
      taken = 1;
    }
    out.push_back(std::move(line));
    for (std::size_t k = taken; k < group; ++k) {
      out.push_back(raw_word(words[i + k]));
    }
    i += group;
  }
  return out;
}

}  // namespace fpgafu::isa

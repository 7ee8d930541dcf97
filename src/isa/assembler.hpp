#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hpp"

namespace fpgafu::isa {

/// Text assembler / disassembler for the RTM instruction set.
///
/// The thesis programs the controller by hand-encoding instruction words;
/// this assembler is the usability layer a released framework would ship.
/// Grammar (one statement per line, `;` or `#` start a comment, but a `#`
/// followed by a digit starts a literal).  The RTM mnemonics and their
/// operands are the rows of isa::kRtmOps, the unit mnemonics those of
/// isa::kStockUnits:
///
/// ```
/// NOP | SYNC
/// COPY  rD, rA            ; register copy
/// COPYF fD, fS            ; flag register copy
/// PUT   rD, #imm64        ; load literal: PUTI when it fits 32 bits,
///                         ; else PUT plus an inline data word
/// PUTI  rD, imm32         ; load 32-bit immediate
/// PUTF  fD, imm8          ; load flag immediate
/// PUTV  rD, n             ; burst load: the next n stream words (.word
///                         ; lines) load rD .. rD+n-1
/// GET   rA                ; send register to host
/// GETF  fS                ; send flag register to host
/// GETV  rA, n             ; send rA .. rA+n-1 to host
/// .word #imm64            ; one raw stream word (a PUTV payload word)
/// ADD   rD, rA, rB [, fD]     SUB, AND, OR, XOR, NAND, NOR, XNOR, ANDN,
///                             ORN, SHL, SHR, ASR, ROL, ROR likewise
/// ADC   rD, rA, rB, fS [, fD] SBB likewise
/// INC   rD, rA [, fD]         DEC likewise;  PASS rD, rA [, fD]
/// NEG   rD, rB [, fD]         NOT rD, rB [, fD]   (second-operand ops)
/// CMP   rA, rB [, fD]         CMPB rA, rB, fS [, fD]
/// CLEAR rD [, fD]             SET rD [, fD]
/// DIVMOD rQ, rR, rA, rB [, fD]  (the remainder register rides in aux)
/// ```
///
/// `fD` defaults to flag register 0 when omitted.  A program that ends
/// inside a PUT/PUTV payload is an error.
class Assembler {
 public:
  /// Assemble a full source text.  Throws SimError with a line-numbered
  /// message on any syntax error.
  static Program assemble(std::string_view source);

  /// Assemble a single statement into `program` (a PUT through
  /// Program::emit_put).
  static void assemble_line(std::string_view line, Program& program);
};

/// Disassemble an instruction stream to statements that re-assemble to the
/// identical words: one mnemonic statement per instruction (a PUT
/// statement re-absorbs its data word, PUTV payload words follow as `.word`
/// lines), or a `.word` line where no statement spells the word exactly.
/// Throws SimError when the stream ends inside a PUT/PUTV payload.
std::vector<std::string> disassemble(const std::vector<Word>& words);

/// Disassemble a single instruction (no inline-data context) by its
/// mnemonic's operands; fields those do not name are dropped.
std::string disassemble_one(const Instruction& inst);

}  // namespace fpgafu::isa

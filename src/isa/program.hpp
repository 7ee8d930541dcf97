#pragma once

#include <cstddef>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/types.hpp"

namespace fpgafu::isa {

/// A host-to-coprocessor instruction stream: 64-bit words, where a PUT
/// instruction is followed inline by its data word (this is the "packets of
/// data" stream the host sends; the message buffer feeds it to the decoder
/// word by word).
class Program {
 public:
  /// Append an instruction word.
  void emit(const Instruction& inst);

  /// Load `value` into register `dst`: one PUTI word when the value fits
  /// its 32-bit immediate, otherwise a PUT plus its inline data word.
  void emit_put(RegNum dst, Word value);

  /// Append a vector PUT: one header word plus values.size() data words
  /// loading registers base .. base+values.size()-1.  At most 255 values.
  void emit_put_vec(RegNum base, const std::vector<Word>& values);

  /// Append a vector GET of `count` registers starting at `base` (`count`
  /// data responses).
  void emit_get_vec(RegNum base, std::uint8_t count);

  /// Append a raw word (used by the assembler for inline data).
  void emit_raw(Word word);

  const std::vector<Word>& words() const { return words_; }
  std::size_t size_words() const { return words_.size(); }

  /// Number of *instructions* (inline data words excluded).
  std::size_t instruction_count() const { return instructions_; }

  /// Number of responses this program will generate (GET/GETF/SYNC each
  /// produce exactly one).  The host driver uses this to know how many
  /// responses to collect.
  std::size_t expected_responses() const { return responses_; }

  void clear();

 private:
  std::vector<Word> words_;
  std::size_t instructions_ = 0;
  std::size_t responses_ = 0;
};

}  // namespace fpgafu::isa

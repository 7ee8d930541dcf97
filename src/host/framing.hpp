#pragma once

#include <bitset>
#include <cstddef>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/program.hpp"
#include "rtm/fu_table.hpp"
#include "rtm/rtm.hpp"

namespace fpgafu::host {

/// One instruction plus any inline payload words (a PUT travels with its
/// data word, a PUTV with its burst) — the unit of retry for
/// ReliableTransport.  A group names a word range of the program it was
/// split from instead of owning a copy, so splitting a program allocates
/// nothing per group.
struct InstructionGroup {
  std::size_t first_word = 0;  ///< index of the instruction word
  std::size_t word_count = 0;  ///< the instruction word plus its payload
  isa::Instruction inst;       ///< decoded instruction word
};

/// Append the groups of `program` to `out`, their word ranges indexing
/// `program.words()`.  Throws SimError when the program ends inside a
/// PUT/PUTV payload; `out` then holds the groups split before the fault.
void split_groups_into(const isa::Program& program,
                       std::vector<InstructionGroup>& out);

/// What one instruction group will do, predicted host-side: how many
/// responses it sends back and which registers it touches.
///
/// `count` mirrors the decoder's validation and the dispatcher's routing:
/// exactly how many responses (data, flags, sync or error) the instruction
/// generates on the given RTM configuration with the given attached-unit
/// table.  In this ISA every group with a response is a read, a SYNC or a
/// fault, and writes are response-less, so re-submitting a group that
/// responds can never change architectural state.
///
/// The register sets are what the transport's per-register write barrier
/// reasons about.  For a read-class group the read sets name every
/// register whose VALUE its responses depend on: a retried GET returns the
/// same bytes iff nothing wrote its source register in between.
/// Error-predicted groups, SYNC and out-of-range sub-reads have empty read
/// sets — their responses are functions of the instruction encoding and
/// the configuration, not of register state, so a retry is always
/// byte-identical.  For a write group the write sets name every register it
/// can mutate (FU destinations are taken conservatively: dst1, aux when the
/// unit writes a second result, and dst_flag always).  A group predicted to
/// error never lands its writes, so its sets are empty.  Data and flag
/// registers are disjoint namespaces.
struct GroupPrediction {
  /// One bit per register number (isa::RegNum is 8-bit, so 256 covers any
  /// RtmConfig).
  using RegSet = std::bitset<256>;
  /// Responses the group produces (a GETV yields `aux`, most writes zero).
  std::size_t count = 0;
  RegSet data_reads;
  RegSet data_writes;
  RegSet flag_reads;
  RegSet flag_writes;

  /// Would issuing this group as a *write* while `reader` is outstanding
  /// let a retry of `reader` observe a newer value?
  bool writes_conflict_with_reads_of(const GroupPrediction& reader) const {
    return (data_writes & reader.data_reads).any() ||
           (flag_writes & reader.flag_reads).any();
  }
};

/// Predict one instruction's responses and register footprint (see
/// GroupPrediction).
GroupPrediction predict(const isa::Instruction& inst,
                        const rtm::RtmConfig& config,
                        const rtm::FunctionalUnitTable& table);

/// One program laid out for the wire: its words, the instruction groups
/// indexing them, and each group's prediction — everything the transport
/// needs to issue, retry and renumber one flight.
struct FrameLayout {
  std::vector<isa::Word> words;
  std::vector<InstructionGroup> groups;
  std::vector<GroupPrediction> predictions;

  /// Lay out `program`, replacing the previous contents but keeping every
  /// vector's capacity, so a recycled layout allocates only when a vector
  /// outgrows it.  Throws SimError when the program ends inside a PUT/PUTV
  /// payload.  An empty program is legal: zero groups, complete at once.
  void assign(const isa::Program& program, const rtm::RtmConfig& config,
              const rtm::FunctionalUnitTable& table);
};

}  // namespace fpgafu::host

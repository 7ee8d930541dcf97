#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/framing.hpp"

namespace fpgafu::host {

/// Multi-CPU front end (paper Fig. 1: "one or more CPUs communicate via the
/// interface with a set of functional units").
///
/// Several host sessions share one coprocessor link.  The multiplexer
/// interleaves whole instructions (a PUT travels with its inline data word)
/// round-robin onto the stream, remembers which session issued each
/// instruction sequence number, and routes arriving responses back to the
/// issuing session's inbox.  Because the RTM returns results in issue
/// order, per-session response order equals per-session issue order.
///
/// Each sequence-number table entry is released once the predicted number
/// of responses has been routed, so after the 16-bit sequence counter wraps
/// a duplicate or stale response trips the "unknown sequence owner" check
/// instead of being misrouted to whichever session owned the number an
/// epoch ago.
///
/// Note the isolation caveat this inherits from the hardware: sessions
/// share the register files.  Sessions must partition registers among
/// themselves (as threads partition memory), which the examples demonstrate.
class MultiHost {
 public:
  class Session {
   public:
    /// Queue a program for interleaved submission.
    void submit(const isa::Program& program);

    /// Pop the next response routed to this session, if any.
    std::optional<msg::Response> poll();

    /// Submit and block (pumping the multiplexer and the clock) until this
    /// session's expected responses arrive.
    std::vector<msg::Response> call(
        const isa::Program& program,
        std::uint64_t max_cycles = kDefaultCallBudgetCycles);

    std::size_t id() const { return id_; }
    bool has_pending_instructions() const { return !pending_.empty(); }
    /// Instruction groups queued but not yet interleaved onto the link.
    std::size_t pending_count() const { return pending_.size(); }

   private:
    friend class MultiHost;
    Session(MultiHost* owner, std::size_t id) : owner_(owner), id_(id) {}

    MultiHost* owner_;
    std::size_t id_;
    /// Instruction groups awaiting interleave, and their words in order
    /// (the front group's word_count words lead pending_words_).
    std::deque<InstructionGroup> pending_;
    std::deque<isa::Word> pending_words_;
    std::deque<msg::Response> inbox_;
  };

  explicit MultiHost(top::System& system) : copro_(system) {
    seq_owner_.assign(std::size_t{1} << 16, SeqOwner{});
  }

  /// Create a new session; references remain valid for the MultiHost's
  /// lifetime.
  Session& create_session();

  /// One multiplexer round: interleave up to one instruction per session
  /// onto the link (round-robin, resuming after the last session actually
  /// served), then route any arrived responses.  With a bounded downstream
  /// link the round stops early rather than blocking mid-instruction.
  void pump();

  /// True when no session holds unsent instructions.
  bool all_submitted() const;

  Coprocessor& coprocessor() { return copro_; }

 private:
  static constexpr std::size_t kNobody = ~std::size_t{0};

  /// Who issued a live sequence number, and how many of its responses are
  /// still due.  `session` returns to kNobody when the count hits zero.
  struct SeqOwner {
    std::size_t session = kNobody;
    std::uint16_t remaining = 0;
  };

  void route_responses();

  Coprocessor copro_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<SeqOwner> seq_owner_;  ///< seq -> issuing session ring
  std::uint16_t next_seq_ = 0;       ///< mirrors the decoder's counter
  std::size_t rr_next_ = 0;
};

}  // namespace fpgafu::host

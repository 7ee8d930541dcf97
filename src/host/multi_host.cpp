#include "host/multi_host.hpp"

#include "util/error.hpp"

namespace fpgafu::host {

void MultiHost::Session::submit(const isa::Program& program) {
  for (const InstructionGroup& g : split_groups(program)) {
    pending_.push_back(g);
  }
  pending_words_.insert(pending_words_.end(), program.words().begin(),
                        program.words().end());
}

std::optional<msg::Response> MultiHost::Session::poll() {
  if (inbox_.empty()) {
    return std::nullopt;
  }
  const msg::Response r = inbox_.front();
  inbox_.pop_front();
  return r;
}

std::vector<msg::Response> MultiHost::Session::call(
    const isa::Program& program, std::uint64_t max_cycles) {
  submit(program);
  std::vector<msg::Response> responses;
  // Blocks on the shared Pump (the coprocessor's clock owner): one
  // multiplexer round per cycle, with the uniform Deadline watchdog.
  owner_->copro_.pump().run_until(
      [&] {
        owner_->pump();
        while (auto r = poll()) {
          responses.push_back(*r);
        }
        return responses.size() >= program.expected_responses() &&
               pending_.empty();
      },
      Deadline(owner_->copro_.system().simulator(), max_cycles),
      "MultiHost::Session::call");
  return responses;
}

MultiHost::Session& MultiHost::create_session() {
  sessions_.push_back(
      std::unique_ptr<Session>(new Session(this, sessions_.size())));
  return *sessions_.back();
}

bool MultiHost::all_submitted() const {
  for (const auto& s : sessions_) {
    if (!s->pending_.empty()) {
      return false;
    }
  }
  return true;
}

void MultiHost::pump() {
  // Round-robin: one instruction group per session per round, resuming
  // after the last session actually served — if a round stops early (full
  // link), the sessions it skipped are first in line next round.
  const std::size_t n = sessions_.size();
  const rtm::Rtm& rtm = copro_.system().rtm();
  bool served_any = false;
  std::size_t last_served = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (rr_next_ + k) % n;
    Session& s = *sessions_[idx];
    if (s.pending_.empty()) {
      continue;
    }
    const InstructionGroup& group = s.pending_.front();
    // A group that does not fit the downstream link buffer would block
    // mid-instruction inside submit_word; end the round instead.
    if (copro_.system().link().host_space() <
        group.word_count * msg::kLinkWordsPerStreamWord) {
      break;
    }
    const ResponsePrediction pred =
        predict(group.inst, rtm.config(), rtm.table());
    for (std::size_t w = 0; w < group.word_count; ++w) {
      copro_.submit_word(s.pending_words_.front());
      s.pending_words_.pop_front();
    }
    // Response-less instructions still consume a sequence number; keep the
    // owner entry live (released only by overwrite an epoch later) so a
    // response that "cannot happen" is routed somewhere diagnosable.
    seq_owner_[next_seq_] = {
        s.id_, static_cast<std::uint16_t>(pred.count > 0 ? pred.count : 1)};
    ++next_seq_;  // uint16 wraps with the decoder's counter
    s.pending_.pop_front();
    served_any = true;
    last_served = idx;
  }
  if (served_any) {
    rr_next_ = (last_served + 1) % n;
  }
  route_responses();
}

void MultiHost::route_responses() {
  while (auto r = copro_.poll()) {
    SeqOwner& owner = seq_owner_[r->seq];
    check(owner.session != kNobody && owner.session < sessions_.size(),
          "response with unknown sequence owner");
    sessions_[owner.session]->inbox_.push_back(*r);
    // Release the entry once every due response has been routed, so a
    // post-wrap duplicate trips the check above instead of misrouting.
    if (--owner.remaining == 0) {
      owner.session = kNobody;
    }
  }
}

}  // namespace fpgafu::host

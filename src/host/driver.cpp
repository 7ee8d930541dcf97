#include "host/driver.hpp"

#include <array>
#include <string>

#include "util/error.hpp"

namespace fpgafu::host {

void Deadline::fail_expired(std::string_view what) const {
  throw SimError(std::string(what) + ": watchdog expired after " +
                 std::to_string(budget_) + " cycles");
}

void Driver::sync_reset() {
  const std::uint64_t gen = system_->simulator().reset_generation();
  if (gen != reset_generation_) {
    reset_generation_ = gen;
    serviced_cycle_ = kNever;
    rx_words_.clear();
    tx_words_.clear();
  }
}

void Driver::enqueue_word(isa::Word word) {
  // Fold in any external simulator reset *before* appending, so the stale
  // pre-reset queue is discarded but this word survives.
  sync_reset();
  tx_words_.push_back(static_cast<msg::LinkWord>(word >> 32));
  tx_words_.push_back(static_cast<msg::LinkWord>(word & 0xffffffffu));
  tx_fresh_ = true;
}

void Driver::enqueue(const isa::Program& program) {
  for (const isa::Word w : program.words()) {
    enqueue_word(w);
  }
}

void Driver::service_link() {
  sync_reset();
  tx_fresh_ = false;
  msg::Link& link = system_->link();
  while (!tx_words_.empty() && link.host_send(tx_words_.front())) {
    tx_words_.pop_front();
  }
  const std::uint64_t now = system_->simulator().cycle();
  if (now == serviced_cycle_) {
    return;  // upstream words arrive only on a clock edge: drained already
  }
  serviced_cycle_ = now;
  while (auto w = link.host_receive()) {
    rx_words_.push_back(*w);
  }
}

std::optional<msg::Response> Driver::poll() {
  service();
  while (rx_words_.size() >= msg::kLinkWordsPerResponse) {
    std::array<msg::LinkWord, msg::kLinkWordsPerResponse> frame;
    for (unsigned i = 0; i < msg::kLinkWordsPerResponse; ++i) {
      frame[i] = rx_words_[i];
    }
    if (msg::Response::frame_ok(frame)) {
      for (unsigned i = 0; i < msg::kLinkWordsPerResponse; ++i) {
        rx_words_.pop_front();
      }
      ++responses_received_;
      return msg::Response::from_link_words(frame);
    }
    // Misaligned or corrupted: slide one word and retry.  The bad frame is
    // lost (the transport layer's job to recover); framing realigns.
    rx_words_.pop_front();
    stats_.bump(crc_resyncs_);
  }
  return std::nullopt;
}

void Driver::reset() {
  rx_words_.clear();
  tx_words_.clear();
}

}  // namespace fpgafu::host

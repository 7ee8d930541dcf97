#include "host/driver.hpp"

#include <algorithm>
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

void Driver::send() {
  tx_fresh_ = false;
  msg::Link& link = system_->link();
  while (!tx_words_.empty() && link.host_send(tx_words_.front())) {
    tx_words_.pop_front();
  }
}

void Driver::service_link() {
  sync_reset();
  send();
  const std::uint64_t now = system_->simulator().cycle();
  if (now == serviced_cycle_) {
    return;  // upstream words arrive only on a clock edge: drained already
  }
  serviced_cycle_ = now;
  system_->link().host_receive_all(rx_words_);
}

std::uint64_t Driver::due() const {
  const sim::Simulator& sim = system_->simulator();
  if (tx_fresh_ || !tx_words_.empty() ||
      sim.reset_generation() != reset_generation_) {
    return sim.cycle();
  }
  const msg::Link& link = system_->link();
  if (link.up_bounded()) {
    return link.host_arrival(1);
  }
  // The window deframes only whole frames: the next one can complete when
  // enough words to fill it have arrived.  (A window a caller leaves
  // unpolled already holds one; then any arrival is news.)
  const std::size_t have = rx_words_.size();
  return link.host_arrival(have >= msg::kLinkWordsPerResponse
                               ? 1
                               : msg::kLinkWordsPerResponse - have);
}

std::uint64_t Pump::advance(const Wake& wake, const Deadline& deadline) {
  const std::uint64_t start = sim_->cycle();
  std::uint64_t until = std::min(wake.cycle(), start + kMaxQuiet);
  if (!deadline.unlimited()) {
    until = std::min(until, start + deadline.remaining());
  }
  if (wake.after_step()) {
    until = std::min(until, driver_->drained_at());
  }
  // An executed step may launch upstream words, which can only bring the
  // driver's due cycle forward: ask again after every advance.
  std::uint64_t due = driver_->due();
  for (;;) {
    const bool stepped = sim_->advance(std::min(until, due));
    const std::uint64_t now = sim_->cycle();
    due = driver_->due();
    if ((stepped && wake.after_step()) || now >= until || due <= now) {
      return now - start;
    }
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

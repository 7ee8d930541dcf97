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

void Driver::enqueue(std::span<const isa::Word> words) {
  // Fold in any external simulator reset *before* sending, so the stale
  // pre-reset queue is discarded but these words survive.
  sync_reset();
  msg::Link& link = system_->link();
  for (const isa::Word w : words) {
    for (const msg::LinkWord lw : {static_cast<msg::LinkWord>(w >> 32),
                                   static_cast<msg::LinkWord>(w)}) {
      // Behind a refused word, every later one queues too: order is kept.
      if (!tx_words_.empty() || !link.host_send(lw)) {
        tx_words_.push_back(lw);
      }
    }
  }
}

void Driver::service_link() {
  sync_reset();
  msg::Link& link = system_->link();
  while (!tx_words_.empty() && link.host_send(tx_words_.front())) {
    tx_words_.pop_front();
  }
  serviced_cycle_ = system_->simulator().cycle();
  link.host_receive_all(rx_words_);
}

std::uint64_t Driver::due() const {
  const sim::Simulator& sim = system_->simulator();
  if (!tx_words_.empty() ||
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

}  // namespace fpgafu::host

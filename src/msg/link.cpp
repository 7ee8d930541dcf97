#include "msg/link.hpp"

#include <algorithm>
#include <limits>

namespace fpgafu::msg {

Link::Link(sim::Simulator& sim, std::string name, LinkTiming down_timing,
           LinkTiming up_timing, std::size_t down_capacity,
           std::size_t up_capacity)
    : Component(sim, std::move(name)),
      rx(sim),
      tx(sim),
      down_(down_timing),
      up_(up_timing),
      down_capacity_(down_capacity),
      up_capacity_(up_capacity) {}

void Link::enqueue(CompactingQueue<InFlight>& queue, LinkWord word,
                   std::uint64_t arrives_at) {
  if (!queue.empty()) {
    arrives_at = std::max(arrives_at, queue.back().arrives_at);
  }
  queue.push_back({word, arrives_at});
}

bool Link::host_send(LinkWord word) {
  if (down_capacity_ != 0 && down_queue_.size() >= down_capacity_) {
    ++send_rejects_;
    return false;
  }
  // Rate-limit departures, then add flight latency.
  const std::uint64_t depart =
      std::max<std::uint64_t>(simulator().cycle(), down_next_slot_);
  down_next_slot_ = depart + down_.interval;
  const Injection inj = classify(/*downstream=*/true, word);
  if (!inj.drop) {
    enqueue(down_queue_, word, depart + down_.latency + inj.extra_latency);
    if (inj.duplicate) {
      down_next_slot_ += down_.interval;
      enqueue(down_queue_, word,
              depart + down_.interval + down_.latency + inj.extra_latency);
    }
  }
  // Host-side mutation of sim-visible state (rx presentation) between
  // cycles: schedule ourselves so the event kernel notices.
  wake();
  return true;
}

std::size_t Link::host_space() const {
  if (down_capacity_ == 0) {
    return std::numeric_limits<std::size_t>::max();
  }
  return down_queue_.size() >= down_capacity_
             ? 0
             : down_capacity_ - down_queue_.size();
}

std::optional<LinkWord> Link::host_receive() {
  if (up_queue_.empty() ||
      up_queue_.front().arrives_at > simulator().cycle()) {
    return std::nullopt;
  }
  const LinkWord w = up_queue_.front().word;
  up_queue_.pop_front();
  // A pop can re-open a bounded upstream buffer (tx.ready).
  wake();
  return w;
}

std::size_t Link::host_available() const {
  const std::uint64_t now = simulator().cycle();
  std::size_t n = 0;
  for (const InFlight& f : up_queue_) {
    if (f.arrives_at <= now) {
      ++n;
    } else {
      break;  // queue is ordered by arrival
    }
  }
  return n;
}

bool Link::drained() const { return down_queue_.empty() && up_queue_.empty(); }

void Link::eval() {
  // Downstream: present the head word to the FPGA once it has "arrived" at
  // the FPGA-side pins.
  if (!down_queue_.empty() &&
      down_queue_.front().arrives_at <= simulator().cycle()) {
    rx.offer(down_queue_.front().word);
  } else {
    rx.withdraw();
  }
  // Upstream: the transmitter accepts a new word when the previous one has
  // cleared the serialisation interval and the bounded buffer has room.
  tx.ready.set(simulator().cycle() >= up_next_slot_ &&
               (up_capacity_ == 0 || up_queue_.size() < up_capacity_));
}

void Link::commit() {
  if (rx.fire()) {
    down_queue_.pop_front();
    ++words_down_;
  }
  if (tx.fire()) {
    const std::uint64_t now = simulator().cycle();
    up_next_slot_ = now + up_.interval;
    ++words_up_;
    LinkWord word = tx.data.get();
    const Injection inj = classify(/*downstream=*/false, word);
    if (!inj.drop) {
      enqueue(up_queue_, word, now + up_.latency + inj.extra_latency);
      if (inj.duplicate) {
        up_next_slot_ += up_.interval;
        enqueue(up_queue_, word,
                now + up_.interval + up_.latency + inj.extra_latency);
      }
    }
  }
  // eval() is a function of *time* while words are in flight downstream
  // (arrival) or the serialisation interval is still running (tx.ready
  // re-assertion — which must happen even when a faulty subclass dropped
  // the word, leaving both queues empty): stay scheduled until the last
  // timer expires, then go quiet.
  if (rx.fire() || tx.fire() || !down_queue_.empty() ||
      up_next_slot_ > simulator().cycle()) {
    mark_active();
  }
}

void Link::reset() {
  down_queue_.clear();
  up_queue_.clear();
  down_next_slot_ = 0;
  up_next_slot_ = 0;
  words_down_ = 0;
  words_up_ = 0;
  send_rejects_ = 0;
  rx.reset();
  tx.reset();
}

}  // namespace fpgafu::msg

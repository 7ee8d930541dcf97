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
  const bool was_empty = down_queue_.empty();
  const Injection inj = classify(/*downstream=*/true, word);
  if (!inj.drop) {
    enqueue(down_queue_, word, depart + down_.latency + inj.extra_latency);
    if (inj.duplicate) {
      down_next_slot_ += down_.interval;
      enqueue(down_queue_, word,
              depart + down_.interval + down_.latency + inj.extra_latency);
    }
  }
  // Only a new head word changes what eval() presents, and only once it
  // arrives: sleep until then.  A word queued behind the head is picked
  // up by the commit that pops its predecessor.
  if (was_empty && !down_queue_.empty()) {
    wake_at(down_queue_.front().arrives_at);
  }
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
  // A pop that re-opens a full bounded upstream buffer re-asserts tx.ready.
  if (up_capacity_ != 0 && up_queue_.size() < up_capacity_ &&
      up_queue_.size() + 1 >= up_capacity_) {
    wake();
  }
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
  const std::uint64_t now = simulator().cycle();
  const bool down_moved = rx.fire();
  const bool up_moved = tx.fire();
  if (down_moved) {
    down_queue_.pop_front();
    ++words_down_;
  }
  if (up_moved) {
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
  if (down_moved || up_moved) {
    // The queues or the serialisation slot moved: the next cycle's eval()
    // and commit() re-derive everything, timed wakes included.
    mark_active();
    return;
  }
  // eval() changes with time alone at two moments: the head word's arrival
  // at the FPGA-side pins, and the end of the upstream serialisation
  // interval (tx.ready re-asserts even when a faulty subclass dropped the
  // word, leaving both queues empty).  Sleep until the earlier of them.
  if (!down_queue_.empty() && down_queue_.front().arrives_at > now) {
    wake_at(down_queue_.front().arrives_at);
  }
  if (up_next_slot_ > now) {
    wake_at(up_next_slot_);
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

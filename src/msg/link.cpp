#include "msg/link.hpp"

#include <algorithm>
#include <limits>

namespace fpgafu::msg {

namespace {
constexpr std::uint64_t kPpmDenominator = 1'000'000;
}  // namespace

Link::Link(sim::Simulator& sim, std::string name, LinkTiming down_timing,
           LinkTiming up_timing, std::size_t down_capacity,
           std::size_t up_capacity, FaultConfig faults)
    : Component(sim, std::move(name)),
      rx(sim),
      tx(sim),
      seed_(faults.seed),
      rng_(faults.seed) {
  for (const Dir dir : {kDown, kUp}) {
    const bool down = dir == kDown;
    Path& p = dirs_[dir];
    p.timing = down ? down_timing : up_timing;
    p.capacity = down ? down_capacity : up_capacity;
    p.faults = down ? faults.down : faults.up;
    const std::string prefix = down ? "link.down_" : "link.up_";
    p.dropped = counters_.handle(prefix + "dropped");
    p.corrupted = counters_.handle(prefix + "corrupted");
    p.duplicated = counters_.handle(prefix + "duplicated");
  }
}

void Link::launch(Dir dir, LinkWord word, std::uint64_t depart) {
  Path& p = dirs_[dir];
  const FaultRates& r = p.faults;
  p.next_slot = depart + p.timing.interval;
  std::uint64_t arrives_at = depart + p.timing.latency;
  if (r.jitter_max != 0) {
    arrives_at += rng_.below(r.jitter_max + 1);
  }
  if (r.drop_ppm != 0 && rng_.chance(r.drop_ppm, kPpmDenominator)) {
    counters_.bump(p.dropped);
    return;
  }
  bool duplicate = false;
  if (r.corrupt_ppm != 0 && rng_.chance(r.corrupt_ppm, kPpmDenominator)) {
    word ^= LinkWord{1} << rng_.below(32);
    counters_.bump(p.corrupted);
  } else if (r.duplicate_ppm != 0 &&
             rng_.chance(r.duplicate_ppm, kPpmDenominator)) {
    duplicate = true;
  }
  p.push(word, arrives_at);
  // The duplicate follows back to back, one slot later.  The capacity
  // check admitted one word, so a duplicate that would overfill a bounded
  // buffer never happens: it counts as neither duplicated nor dropped.
  if (duplicate && !p.full()) {
    counters_.bump(p.duplicated);
    p.next_slot += p.timing.interval;
    p.push(word, arrives_at + p.timing.interval);
  }
}

bool Link::host_send(LinkWord word) {
  Path& down = dirs_[kDown];
  if (down.full()) {
    ++send_rejects_;
    return false;
  }
  const bool was_empty = down.queue.empty();
  // Rate-limit departures; launch() adds the flight latency.
  launch(kDown, word, std::max(simulator().cycle(), down.next_slot));
  // Only a new head word changes what eval() presents, and only once it
  // arrives: sleep until then.  A word queued behind the head is picked
  // up by the commit that pops its predecessor.
  if (was_empty && !down.queue.empty()) {
    wake_at(down.queue.front().arrives_at);
  }
  return true;
}

std::size_t Link::host_space() const {
  const Path& down = dirs_[kDown];
  if (down.capacity == 0) {
    return std::numeric_limits<std::size_t>::max();
  }
  return down.full() ? 0 : down.capacity - down.queue.size();
}

std::optional<LinkWord> Link::host_receive() {
  Path& up = dirs_[kUp];
  if (up.queue.empty() || up.queue.front().arrives_at > simulator().cycle()) {
    return std::nullopt;
  }
  const LinkWord w = up.queue.front().word;
  up.queue.pop_front();
  // A pop that re-opens a full bounded upstream buffer re-asserts tx.ready.
  if (up.capacity != 0 && up.queue.size() + 1 == up.capacity) {
    wake();
  }
  return w;
}

std::size_t Link::host_receive_all(CompactingQueue<LinkWord>& out) {
  Path& up = dirs_[kUp];
  const std::uint64_t now = simulator().cycle();
  const bool was_full = up.full();
  std::size_t n = 0;
  for (; !up.queue.empty() && up.queue.front().arrives_at <= now; ++n) {
    out.push_back(up.queue.front().word);
    up.queue.pop_front();
  }
  // As in host_receive(): re-opening a full bounded buffer re-asserts
  // tx.ready.
  if (was_full && n > 0) {
    wake();
  }
  return n;
}

std::size_t Link::host_available() const {
  const std::uint64_t now = simulator().cycle();
  std::size_t n = 0;
  for (const InFlight& f : dirs_[kUp].queue) {
    if (f.arrives_at <= now) {
      ++n;
    } else {
      break;  // queue is ordered by arrival
    }
  }
  return n;
}

bool Link::drained() const {
  return dirs_[kDown].queue.empty() && dirs_[kUp].queue.empty();
}

void Link::eval() {
  const Path& down = dirs_[kDown];
  const Path& up = dirs_[kUp];
  // Downstream: present the head word to the FPGA once it has "arrived" at
  // the FPGA-side pins.
  if (!down.queue.empty() &&
      down.queue.front().arrives_at <= simulator().cycle()) {
    rx.offer(down.queue.front().word);
  } else {
    rx.withdraw();
  }
  // Upstream: the transmitter accepts a new word when the previous one has
  // cleared the serialisation interval and the bounded buffer has room.
  tx.ready.set(simulator().cycle() >= up.next_slot && !up.full());
}

void Link::commit() {
  const std::uint64_t now = simulator().cycle();
  Path& down = dirs_[kDown];
  Path& up = dirs_[kUp];
  const bool down_moved = rx.fire();
  const bool up_moved = tx.fire();
  if (down_moved) {
    down.queue.pop_front();
    ++down.words;
  }
  if (up_moved) {
    ++up.words;
    launch(kUp, tx.data.get(), now);
  }
  if (down_moved || up_moved) {
    // The queues or the serialisation slot moved: the next cycle's eval()
    // and commit() re-derive everything, timed wakes included.
    mark_active();
    return;
  }
  // eval() changes with time alone at two moments: the head word's arrival
  // at the FPGA-side pins, and the end of the upstream serialisation
  // interval (tx.ready re-asserts even when the word was dropped, leaving
  // both queues empty).  Sleep until the earlier of them.
  if (!down.queue.empty() && down.queue.front().arrives_at > now) {
    wake_at(down.queue.front().arrives_at);
  }
  if (up.next_slot > now) {
    wake_at(up.next_slot);
  }
}

void Link::reset() {
  for (Path& p : dirs_) {
    p.queue.clear();
    p.next_slot = 0;
    p.words = 0;
  }
  send_rejects_ = 0;
  // Re-seed so a reset run replays the same fault pattern.
  rng_ = Xoshiro256(seed_);
  counters_.clear();
  rx.reset();
  tx.reset();
}

}  // namespace fpgafu::msg

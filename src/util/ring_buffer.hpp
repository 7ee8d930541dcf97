#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fpgafu {

/// Fixed-capacity FIFO ring buffer.
///
/// This is the storage behind the simulated hardware FIFOs (sim::HwFifo) and
/// the software-side message queues.  Capacity is fixed at construction, as
/// it would be for a synthesised FPGA FIFO; push on a full buffer and pop on
/// an empty buffer are programming errors and throw.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : slots_(capacity) {
    check(capacity > 0, "RingBuffer capacity must be positive");
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

  void push(T value) {
    check(!full(), "RingBuffer::push on full buffer");
    slots_[(head_ + size_) % slots_.size()] = std::move(value);
    ++size_;
  }

  const T& front() const {
    check(!empty(), "RingBuffer::front on empty buffer");
    return slots_[head_];
  }

  /// Element `i` positions behind the front (0 == front).
  const T& at(std::size_t i) const {
    check(i < size_, "RingBuffer::at out of range");
    return slots_[(head_ + i) % slots_.size()];
  }

  T pop() {
    check(!empty(), "RingBuffer::pop on empty buffer");
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return value;
  }

  /// Empty the buffer and release the old payloads.  Resetting only the
  /// head/size bookkeeping would keep every previously stored element alive
  /// in `slots_` — for payloads that own resources (queued messages holding
  /// heap buffers) that is a silent leak until the slot is overwritten.
  /// Assigning a fresh default also works for move-only element types,
  /// which `slots_ = std::vector<T>(n)` would not require but `std::fill`
  /// with an lvalue prototype would reject.
  void clear() {
    for (T& slot : slots_) {
      slot = T{};
    }
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Unbounded FIFO that keeps its storage.  Popped slots are reclaimed by
/// sliding the live elements back to the front once at least half the
/// vector is consumed, so a steady stream reaches its high-water capacity
/// and then never allocates — unlike std::deque, which frees and allocates
/// a block every few dozen elements.  Iteration runs front to back.
template <typename T>
class CompactingQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  const T& front() const { return items_[head_]; }
  const T& back() const { return items_.back(); }
  auto begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const { return items_.end(); }

  void push_back(T value) { items_.push_back(std::move(value)); }

  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      clear();
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace fpgafu

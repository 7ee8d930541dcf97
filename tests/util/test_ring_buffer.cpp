#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "util/error.hpp"

namespace fpgafu {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsManyTimes) {
  RingBuffer<int> rb(2);
  for (int i = 0; i < 100; ++i) {
    rb.push(i);
    EXPECT_EQ(rb.front(), i);
    EXPECT_EQ(rb.pop(), i);
  }
}

TEST(RingBuffer, RandomAccessAt) {
  RingBuffer<int> rb(4);
  rb.push(10);
  rb.push(11);
  rb.push(12);
  EXPECT_EQ(rb.at(0), 10);
  EXPECT_EQ(rb.at(1), 11);
  EXPECT_EQ(rb.at(2), 12);
  EXPECT_THROW(rb.at(3), SimError);
}

TEST(RingBuffer, OverflowUnderflowThrow) {
  RingBuffer<int> rb(1);
  EXPECT_THROW(rb.pop(), SimError);
  EXPECT_THROW(rb.front(), SimError);
  rb.push(1);
  EXPECT_THROW(rb.push(2), SimError);
}

TEST(RingBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer<int>(0), SimError);
}

TEST(RingBuffer, MoveOnlyFriendly) {
  RingBuffer<std::string> rb(2);
  rb.push("hello");
  rb.push("world");
  EXPECT_EQ(rb.pop(), "hello");
  rb.clear();
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, ClearReleasesStoredPayloads) {
  // clear() must not merely rewind head/size: the slots would then keep
  // the old payloads alive (a silent leak for resource-owning elements)
  // until the slot happens to be overwritten.
  RingBuffer<std::shared_ptr<int>> rb(4);
  auto p = std::make_shared<int>(42);
  std::weak_ptr<int> alive = p;
  rb.push(std::move(p));
  ASSERT_FALSE(alive.expired());
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_TRUE(alive.expired());
}

TEST(RingBuffer, PopReleasesThePoppedSlot) {
  RingBuffer<std::shared_ptr<int>> rb(2);
  auto p = std::make_shared<int>(1);
  std::weak_ptr<int> alive = p;
  rb.push(std::move(p));
  rb.pop();
  EXPECT_TRUE(alive.expired());
}

TEST(RingBuffer, ClearWorksWithMoveOnlyPayloads) {
  RingBuffer<std::unique_ptr<int>> rb(2);
  rb.push(std::make_unique<int>(1));
  rb.push(std::make_unique<int>(2));
  EXPECT_EQ(*rb.pop(), 1);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(std::make_unique<int>(3));
  EXPECT_EQ(*rb.pop(), 3);
}

TEST(CompactingQueue, IndexesFromTheFrontAcrossCompaction) {
  CompactingQueue<int> q;
  for (int i = 0; i < 10; ++i) {
    q.push_back(i);
  }
  for (int popped = 0; popped < 7; ++popped) {
    ASSERT_EQ(q.front(), popped);
    for (std::size_t k = 0; k < q.size(); ++k) {
      ASSERT_EQ(q[k], popped + static_cast<int>(k));
    }
    q.pop_front();  // compacts once half the vector is consumed
  }
  q.front() = 70;
  q[1] = 80;
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0], 70);
  EXPECT_EQ(q[1], 80);
  EXPECT_EQ(q.back(), 9);
}

}  // namespace
}  // namespace fpgafu

#include "ingest/spsc_queue.h"

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace commsig::ingest {
namespace {

TEST(BoundedSpscQueueTest, FifoWithinCapacity) {
  BoundedSpscQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  int v = 0;
  EXPECT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_EQ(q.ApproxSize(), 0u);
}

TEST(BoundedSpscQueueTest, CloseDrainsPendingItemsThenFails) {
  BoundedSpscQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));
  int v = 0;
  EXPECT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(v));  // closed and drained
  EXPECT_TRUE(q.closed());
}

TEST(BoundedSpscQueueTest, CloseWakesBlockedConsumer) {
  BoundedSpscQueue<int> q(2);
  std::thread consumer([&q] {
    int v = 0;
    EXPECT_FALSE(q.Pop(v));  // blocks until Close, then sees empty+closed
  });
  q.Close();
  consumer.join();
}

TEST(BoundedSpscQueueTest, CloseWakesBlockedProducer) {
  BoundedSpscQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&q] {
    EXPECT_FALSE(q.Push(2));  // queue full; Close must wake and fail it
  });
  q.Close();
  producer.join();
}

TEST(BoundedSpscQueueTest, BackpressureBlocksThenResumes) {
  BoundedSpscQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&q] { EXPECT_TRUE(q.Push(2)); });
  // Drain the full queue; the producer, blocked or not, then completes.
  int v = 0;
  EXPECT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 1);
  producer.join();
  ASSERT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedSpscQueueTest, StallCountersRecordBlocking) {
  BoundedSpscQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&q] { EXPECT_TRUE(q.Push(2)); });
  // Wait until the producer has actually gone to sleep on the full queue so
  // the stall counter observation is deterministic.
  while (q.producer_stalls() == 0) std::this_thread::yield();
  int v = 0;
  ASSERT_TRUE(q.Pop(v));
  producer.join();
  EXPECT_GE(q.producer_stalls(), 1u);
  ASSERT_TRUE(q.Pop(v));  // drain item 2 so the queue is empty again

  std::thread consumer([&q] {
    int got = 0;
    EXPECT_TRUE(q.Pop(got));
    EXPECT_EQ(got, 3);
  });
  while (q.consumer_stalls() == 0) std::this_thread::yield();
  ASSERT_TRUE(q.Push(3));
  consumer.join();
  EXPECT_GE(q.consumer_stalls(), 1u);
}

TEST(BoundedSpscQueueTest, MoveOnlyPayload) {
  BoundedSpscQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.Push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.Pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(BoundedSpscQueueTest, ZeroCapacityClampsToOne) {
  BoundedSpscQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.Push(5));
  int v = 0;
  EXPECT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 5);
}

}  // namespace
}  // namespace commsig::ingest

// Race-stress coverage for ingest::BoundedSpscQueue, written to run under
// -DCOMMSIG_SANITIZE=thread in CI but asserting real invariants (lossless
// transfer, FIFO order, drain-on-close) in every build mode. The queue is
// the only coupling between pipeline stages, so a torn ring slot or a lost
// wakeup here would corrupt windows silently.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/spsc_queue.h"

namespace commsig::ingest {
namespace {

TEST(SpscQueueRaceTest, LosslessOrderedTransferUnderContention) {
  constexpr uint64_t kItems = 100000;
  BoundedSpscQueue<uint64_t> q(8);  // small ring: constant wrap + stalls
  std::thread producer([&q] {
    for (uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(i));
    q.Close();
  });
  uint64_t expected = 0;
  uint64_t sum = 0;
  uint64_t v = 0;
  while (q.Pop(v)) {
    ASSERT_EQ(v, expected);  // strict FIFO, no dup/loss/tear
    ++expected;
    sum += v;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

TEST(SpscQueueRaceTest, CloseWhileProducerBlockedLosesNothingAlreadyQueued) {
  BoundedSpscQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    int item = 3;
    // Blocks on the full ring; Close() must wake it with a clean failure.
    EXPECT_FALSE(q.Push(item));
    push_returned.store(true);
  });
  while (q.producer_stalls() == 0) std::this_thread::yield();
  q.Close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  // Items accepted before the close still drain in order.
  int v = 0;
  ASSERT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.Pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(v));
}

TEST(SpscQueueRaceTest, BackpressureWakeupsNeverDeadlock) {
  // Tiny capacity forces both sides through their CondVar paths thousands
  // of times; a lost wakeup shows up as a hang (and the test runner's
  // timeout), a data race as a TSan report.
  constexpr uint64_t kItems = 20000;
  BoundedSpscQueue<uint64_t> q(1);
  std::thread producer([&q] {
    for (uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(i));
    q.Close();
  });
  uint64_t count = 0;
  uint64_t v = 0;
  while (q.Pop(v)) ++count;
  producer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_GT(q.producer_stalls() + q.consumer_stalls(), 0u);
}

TEST(SpscQueueRaceTest, ManyShortLivedQueues) {
  // Exercises construction/teardown races: a queue that is created, used
  // briefly by two threads, closed and destroyed must not leave dangling
  // waiters.
  for (int round = 0; round < 200; ++round) {
    BoundedSpscQueue<int> q(2);
    std::thread producer([&q] {
      for (int i = 0; i < 16; ++i) {
        if (!q.Push(i)) return;
      }
      q.Close();
    });
    int v = 0;
    int count = 0;
    while (q.Pop(v)) ++count;
    producer.join();
    EXPECT_EQ(count, 16);
  }
}

}  // namespace
}  // namespace commsig::ingest

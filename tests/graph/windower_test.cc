#include "graph/windower.h"

#include <gtest/gtest.h>

#include <limits>

#include "obs/metrics.h"

namespace commsig {
namespace {

TEST(TraceWindowerTest, WindowOfBoundaries) {
  TraceWindower w(4, /*window_length=*/10, /*start_time=*/100);
  EXPECT_EQ(w.WindowOf(100), 0u);
  EXPECT_EQ(w.WindowOf(109), 0u);
  EXPECT_EQ(w.WindowOf(110), 1u);
  EXPECT_EQ(w.WindowOf(99), static_cast<size_t>(-1));
}

TEST(TraceWindowerTest, SplitsEventsIntoWindows) {
  TraceWindower w(3, 10);
  std::vector<TraceEvent> events = {
      {0, 1, 0, 1.0},   // window 0
      {0, 1, 5, 2.0},   // window 0 (aggregates)
      {1, 2, 12, 4.0},  // window 1
      {0, 2, 25, 8.0},  // window 2
  };
  auto graphs = w.Split(events);
  ASSERT_EQ(graphs.size(), 3u);
  EXPECT_DOUBLE_EQ(graphs[0].EdgeWeight(0, 1), 3.0);
  EXPECT_EQ(graphs[0].NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(graphs[1].EdgeWeight(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(graphs[2].EdgeWeight(0, 2), 8.0);
}

TEST(TraceWindowerTest, AllWindowsShareNodeUniverse) {
  TraceWindower w(5, 10);
  std::vector<TraceEvent> events = {{0, 1, 0, 1.0}, {3, 4, 15, 1.0}};
  auto graphs = w.Split(events);
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_EQ(graphs[0].NumNodes(), 5u);
  EXPECT_EQ(graphs[1].NumNodes(), 5u);
}

TEST(TraceWindowerTest, GapWindowsAreEmpty) {
  TraceWindower w(2, 10);
  std::vector<TraceEvent> events = {{0, 1, 0, 1.0}, {0, 1, 35, 1.0}};
  auto graphs = w.Split(events);
  ASSERT_EQ(graphs.size(), 4u);
  EXPECT_EQ(graphs[1].NumEdges(), 0u);
  EXPECT_EQ(graphs[2].NumEdges(), 0u);
  EXPECT_EQ(graphs[3].NumEdges(), 1u);
}

TEST(TraceWindowerTest, EventsBeforeStartDropped) {
  TraceWindower w(2, 10, /*start_time=*/50);
  std::vector<TraceEvent> events = {{0, 1, 10, 1.0}, {0, 1, 55, 2.0}};
  auto graphs = w.Split(events);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_DOUBLE_EQ(graphs[0].EdgeWeight(0, 1), 2.0);
}

TEST(TraceWindowerTest, EmptyTraceYieldsNoWindows) {
  TraceWindower w(2, 10);
  EXPECT_TRUE(w.Split({}).empty());
}

TEST(TraceWindowerTest, UnorderedEventsBucketCorrectly) {
  TraceWindower w(2, 10);
  std::vector<TraceEvent> events = {
      {0, 1, 15, 1.0}, {0, 1, 3, 2.0}, {1, 0, 11, 4.0}};
  auto graphs = w.Split(events);
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_DOUBLE_EQ(graphs[0].EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(graphs[1].EdgeWeight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(graphs[1].EdgeWeight(1, 0), 4.0);
}

TEST(TraceWindowerTest, SlidingWithStrideEqualToLengthMatchesSplit) {
  TraceWindower w(3, 10);
  std::vector<TraceEvent> events = {
      {0, 1, 0, 1.0}, {1, 2, 12, 4.0}, {0, 2, 25, 8.0}};
  auto tumbling = w.Split(events);
  auto sliding = w.SplitSliding(events, 10);
  ASSERT_EQ(sliding.size(), tumbling.size());
  for (size_t i = 0; i < sliding.size(); ++i) {
    EXPECT_DOUBLE_EQ(sliding[i].EdgeWeight(0, 1), tumbling[i].EdgeWeight(0, 1));
    EXPECT_DOUBLE_EQ(sliding[i].EdgeWeight(1, 2), tumbling[i].EdgeWeight(1, 2));
    EXPECT_DOUBLE_EQ(sliding[i].EdgeWeight(0, 2), tumbling[i].EdgeWeight(0, 2));
  }
}

TEST(TraceWindowerTest, SlidingWindowsOverlap) {
  TraceWindower w(2, /*window_length=*/10);
  // One event at t=12: covered by window 0 ([0,10)? no), window 1 ([5,15)?
  // yes) ... with stride 5 the windows are [0,10), [5,15), [10,20).
  std::vector<TraceEvent> events = {{0, 1, 12, 2.0}};
  auto graphs = w.SplitSliding(events, 5);
  ASSERT_EQ(graphs.size(), 3u);
  EXPECT_EQ(graphs[0].NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(graphs[1].EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(graphs[2].EdgeWeight(0, 1), 2.0);
}

TEST(TraceWindowerTest, SlidingAggregatesOnlyCoveredEvents) {
  TraceWindower w(2, 10);
  // Window 1 covers [5,15): sees only the t=7 and t=12 events.
  std::vector<TraceEvent> events = {
      {0, 1, 2, 1.0}, {0, 1, 7, 2.0}, {0, 1, 12, 4.0}, {0, 1, 17, 8.0}};
  auto graphs = w.SplitSliding(events, 5);
  ASSERT_GE(graphs.size(), 2u);
  EXPECT_DOUBLE_EQ(graphs[0].EdgeWeight(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(graphs[1].EdgeWeight(0, 1), 6.0);
}

TEST(TraceWindowerTest, SlidingClampsZeroStride) {
  TraceWindower w(2, 10);
  std::vector<TraceEvent> events = {{0, 1, 3, 1.0}};
  // stride 0 would never terminate; it is clamped to 1.
  auto graphs = w.SplitSliding(events, 0);
  ASSERT_EQ(graphs.size(), 4u);  // windows starting at 0..3 contain t=3
  for (const auto& g : graphs) EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 1.0);
}

TEST(TraceWindowerTest, LastRepresentableTimeIsDroppedNotWrapped) {
  // Window index 2^64 - 1 would need 2^64 windows; the count wrapped to 0
  // and the split wrote past an empty vector.
  TraceWindower w(2, /*window_length=*/1);
  const std::vector<TraceEvent> events = {
      {0, 1, std::numeric_limits<uint64_t>::max(), 1.0}};
#ifndef COMMSIG_OBS_DISABLED
  obs::Counter& dropped = obs::MetricsRegistry::Global().GetCounter(
      "robust/windower_dropped_events");
  const uint64_t before = dropped.Value();
#endif
  EXPECT_TRUE(w.Split(events).empty());
#ifndef COMMSIG_OBS_DISABLED
  EXPECT_EQ(dropped.Value() - before, 1u);
#endif
}

TEST(TraceWindowerTest, BipartitePropagatesToEveryWindow) {
  TraceWindower w(4, 10, 0, /*bipartite_left_size=*/2);
  std::vector<TraceEvent> events = {{0, 2, 0, 1.0}, {1, 3, 12, 1.0}};
  auto graphs = w.Split(events);
  for (const auto& g : graphs) {
    EXPECT_TRUE(g.bipartite().IsBipartite());
    EXPECT_EQ(g.bipartite().left_size, 2u);
  }
}

}  // namespace
}  // namespace commsig

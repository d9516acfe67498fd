#include "graph/windower.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/random.h"
#include "obs/metrics.h"
#include "ref/windows.h"

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

TEST(TraceWindowerTest, UnrepresentableWindowCountFailsAtOnce) {
  // 2^64 − 1 windows: the builders are sized once, so the split throws
  // before it builds any window rather than growing until memory runs out.
  TraceWindower w(2, /*window_length=*/1);
  const std::vector<TraceEvent> events = {
      {0, 1, std::numeric_limits<uint64_t>::max() - 1, 1.0}};
  EXPECT_THROW(w.Split(events), std::length_error);
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

/// Bit-exact: -0.0, NaN payloads and the last ulp all count.
template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

ref::WindowArrays ArraysOf(const CommGraph& g) {
  ref::WindowArrays a;
  a.out_index.push_back(0);
  a.in_index.push_back(0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const Edge& e : g.OutEdges(v)) {
      a.out_ids.push_back(e.node);
      a.out_weights.push_back(e.weight);
    }
    for (const Edge& e : g.InEdges(v)) {
      a.in_ids.push_back(e.node);
      a.in_weights.push_back(e.weight);
    }
    a.out_index.push_back(a.out_ids.size());
    a.in_index.push_back(a.in_ids.size());
    a.out_weight.push_back(g.OutWeight(v));
    a.in_weight.push_back(g.InWeight(v));
  }
  a.total_weight = g.TotalWeight();
  return a;
}

void ExpectSameWindow(const CommGraph& g, const ref::WindowArrays& want,
                      const std::string& where) {
  const ref::WindowArrays got = ArraysOf(g);
  EXPECT_TRUE(SameBits(got.out_index, want.out_index)) << where;
  EXPECT_TRUE(SameBits(got.out_ids, want.out_ids)) << where;
  EXPECT_TRUE(SameBits(got.out_weights, want.out_weights)) << where;
  EXPECT_TRUE(SameBits(got.in_index, want.in_index)) << where;
  EXPECT_TRUE(SameBits(got.in_ids, want.in_ids)) << where;
  EXPECT_TRUE(SameBits(got.in_weights, want.in_weights)) << where;
  EXPECT_TRUE(SameBits(got.out_weight, want.out_weight)) << where;
  EXPECT_TRUE(SameBits(got.in_weight, want.in_weight)) << where;
  EXPECT_TRUE(SameBits(std::vector<double>{got.total_weight},
                       std::vector<double>{want.total_weight}))
      << where;
}

/// Out-of-order times over [0, horizon), repeated pairs and self loops on a
/// small universe, ids past it, weights the windower must drop (NaN, ±Inf,
/// ±0, negative), and 1e16 next to 1.0, whose sums depend on the order.
std::vector<TraceEvent> RandomStream(uint64_t seed, size_t num_nodes,
                                     size_t count, uint64_t horizon) {
  const double kGood[] = {1.0, 1.0, 2.5, 0.1, 1e16, 1e-300};
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         0.0,
                         -0.0,
                         -2.0};
  Rng rng(seed);
  std::vector<TraceEvent> events;
  for (size_t i = 0; i < count; ++i) {
    TraceEvent e;
    e.src = static_cast<NodeId>(rng.UniformInt(num_nodes + 2));
    e.dst = rng.Bernoulli(0.1) ? e.src
                               : static_cast<NodeId>(rng.UniformInt(
                                     num_nodes + 1));
    e.time = rng.UniformInt(horizon);
    e.weight = rng.Bernoulli(0.1) ? kBad[rng.UniformInt(std::size(kBad))]
                                  : kGood[rng.UniformInt(std::size(kGood))];
    events.push_back(e);
  }
  return events;
}

TEST(TraceWindowerTest, SplitMatchesLiteralTimeFilterBitForBit) {
  constexpr size_t kNodes = 6;
  constexpr uint64_t kLength = 12;
  // Tumbling; strides dividing the length and not; a stride past the
  // length (events in the gaps reach no window); stride 0 (clamped to 1).
  const uint64_t kStrides[] = {kLength, 4, 3, 5, 7, 20, 0};
#ifndef COMMSIG_OBS_DISABLED
  obs::Counter& dropped = obs::MetricsRegistry::Global().GetCounter(
      "robust/windower_dropped_events");
#endif
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<TraceEvent> events =
        RandomStream(seed, kNodes, 150, /*horizon=*/80);
    for (uint64_t start : {uint64_t{0}, uint64_t{25}}) {
      const TraceWindower windower(kNodes, kLength, start);
      for (uint64_t stride : kStrides) {
        const std::string where = "seed " + std::to_string(seed) +
                                  " start " + std::to_string(start) +
                                  " stride " + std::to_string(stride);
        const ref::SplitResult want =
            ref::SplitSliding(events, kNodes, kLength, start, stride);
#ifndef COMMSIG_OBS_DISABLED
        const uint64_t before = dropped.Value();
#endif
        const std::vector<CommGraph> got =
            stride == kLength ? windower.Split(events)
                              : windower.SplitSliding(events, stride);
#ifndef COMMSIG_OBS_DISABLED
        EXPECT_EQ(dropped.Value() - before, want.dropped) << where;
#endif
        ASSERT_EQ(got.size(), want.windows.size()) << where;
        for (size_t w = 0; w < got.size(); ++w) {
          ExpectSameWindow(got[w], want.windows[w],
                           where + " window " + std::to_string(w));
        }
      }
    }
  }
}

}  // namespace
}  // namespace commsig

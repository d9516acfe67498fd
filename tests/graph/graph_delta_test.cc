#include "graph/graph_delta.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.h"

namespace commsig {
namespace {

struct WeightedEdge {
  NodeId src;
  NodeId dst;
  double weight;
};

CommGraph MakeGraph(size_t num_nodes, const std::vector<WeightedEdge>& edges) {
  GraphBuilder b(num_nodes);
  for (const auto& e : edges) b.AddEdge(e.src, e.dst, e.weight);
  return std::move(b).Build();
}

TEST(GraphDeltaTest, IdenticalGraphsAreEmpty) {
  CommGraph a = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}, {3, 0, 5.0}});
  CommGraph b = MakeGraph(4, {{0, 1, 2.0}, {1, 2, 1.0}, {3, 0, 5.0}});
  GraphDelta delta(a, b);
  EXPECT_TRUE(delta.changed_row_nodes().empty());
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(delta.OutChanged(v));
    EXPECT_FALSE(delta.InChanged(v));
    EXPECT_FALSE(delta.LocalDirty(v));
  }
}

TEST(GraphDeltaTest, AggregationOrderDoesNotMatter) {
  // Same multiset of observations added in different orders must aggregate
  // to identical rows (and identical row digests), so the delta is empty.
  CommGraph a = MakeGraph(3, {{0, 1, 1.0}, {0, 2, 3.0}, {0, 1, 2.0}});
  CommGraph b = MakeGraph(3, {{0, 2, 3.0}, {0, 1, 2.0}, {0, 1, 1.0}});
  GraphDelta delta(a, b);
  EXPECT_TRUE(delta.changed_row_nodes().empty());
  EXPECT_EQ(a.OutRowDigest(0), b.OutRowDigest(0));
  EXPECT_EQ(a.InRowDigest(1), b.InRowDigest(1));
}

TEST(GraphDeltaTest, WeightChangeFlagsOutAndInRows) {
  CommGraph a = MakeGraph(4, {{0, 1, 2.0}, {2, 3, 1.0}});
  CommGraph b = MakeGraph(4, {{0, 1, 7.0}, {2, 3, 1.0}});
  GraphDelta delta(a, b);
  EXPECT_TRUE(delta.OutChanged(0));
  EXPECT_TRUE(delta.InChanged(1));
  EXPECT_FALSE(delta.OutChanged(2));
  EXPECT_FALSE(delta.LocalDirty(2));
}

TEST(GraphDeltaTest, VanishedEdgeCountsFullWeight) {
  CommGraph a = MakeGraph(3, {{0, 1, 4.0}, {0, 2, 1.0}});
  CommGraph b = MakeGraph(3, {{0, 2, 1.0}});
  GraphDelta delta(a, b);
  EXPECT_TRUE(delta.OutChanged(0));
  EXPECT_TRUE(delta.InChanged(1));
  EXPECT_FALSE(delta.InChanged(2));
}

TEST(GraphDeltaTest, LocalDirtyPropagatesFromEndpointInDegree) {
  // Node 0's out-row is identical in both windows, but its target (node 2)
  // gains a new in-neighbour, so |I(2)| moves and UT's weights for node 0
  // change: 0 must be LocalDirty without being OutChanged.
  CommGraph a = MakeGraph(4, {{0, 2, 1.0}});
  CommGraph b = MakeGraph(4, {{0, 2, 1.0}, {3, 2, 5.0}});
  GraphDelta delta(a, b);
  EXPECT_FALSE(delta.OutChanged(0));
  EXPECT_TRUE(delta.LocalDirty(0));
  EXPECT_TRUE(delta.OutChanged(3));
  EXPECT_TRUE(delta.LocalDirty(3));
  EXPECT_FALSE(delta.LocalDirty(1));
}

TEST(GraphDeltaTest, StableInDegreeKeepsBystandersClean) {
  // The changed edge re-weights an existing pair: in-degree *sets* are
  // stable, so other talkers to the same service stay clean for UT.
  CommGraph a = MakeGraph(4, {{0, 2, 1.0}, {1, 2, 1.0}});
  CommGraph b = MakeGraph(4, {{0, 2, 9.0}, {1, 2, 1.0}});
  GraphDelta delta(a, b);
  EXPECT_TRUE(delta.LocalDirty(0));
  EXPECT_FALSE(delta.LocalDirty(1));
}

TEST(GraphDeltaTest, RowChangedHonoursTraversalMode) {
  // Node 1 only *receives* differently; its out-row is unchanged. An
  // asymmetric RWR transition row is untouched, a symmetric one moved.
  CommGraph a = MakeGraph(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  CommGraph b = MakeGraph(3, {{0, 1, 3.0}, {1, 2, 1.0}});
  GraphDelta delta(a, b);
  EXPECT_FALSE(delta.RowChanged(1, /*symmetric=*/false));
  EXPECT_TRUE(delta.RowChanged(1, /*symmetric=*/true));
  // changed_row_nodes is the union of out- and in-row changes, ascending.
  std::vector<NodeId> rows(delta.changed_row_nodes().begin(),
                           delta.changed_row_nodes().end());
  EXPECT_EQ(rows, (std::vector<NodeId>{0, 1}));
}

TEST(GraphDeltaTest, RowDigestsDifferForDifferentRows) {
  CommGraph a = MakeGraph(3, {{0, 1, 1.0}});
  CommGraph b = MakeGraph(3, {{0, 1, 2.0}});
  CommGraph c = MakeGraph(3, {{0, 2, 1.0}});
  EXPECT_NE(a.OutRowDigest(0), b.OutRowDigest(0));  // weight differs
  EXPECT_NE(a.OutRowDigest(0), c.OutRowDigest(0));  // neighbour differs
  EXPECT_EQ(a.OutRowDigest(1), b.OutRowDigest(1));  // both empty... equal
  EXPECT_NE(a.InRowDigest(1), c.InRowDigest(1));
}

}  // namespace
}  // namespace commsig

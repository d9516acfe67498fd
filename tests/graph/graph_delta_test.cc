#include "graph/graph_delta.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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
  // to identical rows, so the delta is empty.
  CommGraph a = MakeGraph(3, {{0, 1, 1.0}, {0, 2, 3.0}, {0, 1, 2.0}});
  CommGraph b = MakeGraph(3, {{0, 2, 3.0}, {0, 1, 2.0}, {0, 1, 1.0}});
  GraphDelta delta(a, b);
  EXPECT_TRUE(delta.changed_row_nodes().empty());
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

// The three cases below tie on node 0's out-degree and OutWeight, so
// only the entry-by-entry comparison can tell its rows apart.

/// Nodes flagged by `changed` (OutChanged or InChanged), ascending.
template <typename Flag>
std::vector<NodeId> Flagged(size_t num_nodes, Flag changed) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (changed(v)) nodes.push_back(v);
  }
  return nodes;
}

void ExpectOutRowChange(const CommGraph& a, const CommGraph& b,
                        const std::vector<NodeId>& in_changed) {
  ASSERT_EQ(a.OutDegree(0), b.OutDegree(0));
  ASSERT_EQ(std::bit_cast<uint64_t>(a.OutWeight(0)),
            std::bit_cast<uint64_t>(b.OutWeight(0)));
  GraphDelta delta(a, b);
  const size_t n = a.NumNodes();
  EXPECT_EQ(Flagged(n, [&](NodeId v) { return delta.OutChanged(v); }),
            (std::vector<NodeId>{0}));
  EXPECT_EQ(Flagged(n, [&](NodeId v) { return delta.InChanged(v); }),
            in_changed);
}

TEST(GraphDeltaTest, SameDegreeAndSumDifferentNeighbour) {
  ExpectOutRowChange(MakeGraph(4, {{0, 1, 1.0}, {0, 2, 2.0}}),
                     MakeGraph(4, {{0, 1, 1.0}, {0, 3, 2.0}}), {2, 3});
}

TEST(GraphDeltaTest, SwappedWeights) {
  ExpectOutRowChange(MakeGraph(3, {{0, 1, 1.0}, {0, 2, 2.0}}),
                     MakeGraph(3, {{0, 1, 2.0}, {0, 2, 1.0}}), {1, 2});
}

TEST(GraphDeltaTest, WeightDifferingInLastBit) {
  // Two observations sum to 0.1 + 0.2 = 0.30000000000000004, one ulp above
  // the single observation 0.3; added to 1e16, both round to one OutWeight.
  CommGraph a = MakeGraph(3, {{0, 1, 0.1}, {0, 1, 0.2}, {0, 2, 1e16}});
  CommGraph b = MakeGraph(3, {{0, 1, 0.3}, {0, 2, 1e16}});
  ASSERT_EQ(std::bit_cast<uint64_t>(a.EdgeWeight(0, 1)),
            std::bit_cast<uint64_t>(b.EdgeWeight(0, 1)) + 1);
  ExpectOutRowChange(a, b, {1});
}

}  // namespace
}  // namespace commsig

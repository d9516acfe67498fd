#include "graph/comm_graph.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace commsig {
namespace {

CommGraph MakeTriangle() {
  // 0 -> 1 (2.0), 1 -> 2 (3.0), 2 -> 0 (4.0), 0 -> 2 (1.0)
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 2, 3.0);
  b.AddEdge(2, 0, 4.0);
  b.AddEdge(0, 2, 1.0);
  return std::move(b).Build();
}

TEST(CommGraphTest, EmptyGraph) {
  GraphBuilder b(5);
  CommGraph g = std::move(b).Build();
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.TotalWeight(), 0.0);
  EXPECT_TRUE(g.OutEdges(0).empty());
  EXPECT_TRUE(g.InEdges(4).empty());
}

TEST(CommGraphTest, DefaultConstructedHasNoNodes) {
  CommGraph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(CommGraphTest, BasicCounts) {
  CommGraph g = MakeTriangle();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 10.0);
}

TEST(CommGraphTest, OutEdgesSortedByNode) {
  CommGraph g = MakeTriangle();
  auto edges = g.OutEdges(0);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].node, 1u);
  EXPECT_DOUBLE_EQ(edges[0].weight, 2.0);
  EXPECT_EQ(edges[1].node, 2u);
  EXPECT_DOUBLE_EQ(edges[1].weight, 1.0);
}

TEST(CommGraphTest, InEdgesMatchOutEdges) {
  CommGraph g = MakeTriangle();
  auto in2 = g.InEdges(2);
  ASSERT_EQ(in2.size(), 2u);
  // In-edges of 2 come from 0 (1.0) and 1 (3.0), sorted by source.
  EXPECT_EQ(in2[0].node, 0u);
  EXPECT_DOUBLE_EQ(in2[0].weight, 1.0);
  EXPECT_EQ(in2[1].node, 1u);
  EXPECT_DOUBLE_EQ(in2[1].weight, 3.0);
}

TEST(CommGraphTest, Degrees) {
  CommGraph g = MakeTriangle();
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.InDegree(2), 2u);
}

TEST(CommGraphTest, OutInWeights) {
  CommGraph g = MakeTriangle();
  EXPECT_DOUBLE_EQ(g.OutWeight(0), 3.0);
  EXPECT_DOUBLE_EQ(g.InWeight(2), 4.0);
  EXPECT_DOUBLE_EQ(g.InWeight(0), 4.0);
}

TEST(CommGraphTest, EdgeWeightLookup) {
  CommGraph g = MakeTriangle();
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 0.0);  // absent
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, RepeatedEdgesAggregate) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(0, 1, 2.5);
  b.AddEdge(0, 1, 0.5);
  CommGraph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 4.0);
}

TEST(GraphBuilderTest, ObservationsSumInArrivalOrder) {
  // 1e16 + 1 rounds back to 1e16, so which observation comes first decides
  // the bits: each edge sums its observations in the order they arrived.
  GraphBuilder big_first(2);
  for (double w : {1e16, 1.0, 1.0}) big_first.AddEdge(0, 1, w);
  GraphBuilder big_last(2);
  for (double w : {1.0, 1.0, 1e16}) big_last.AddEdge(0, 1, w);
  EXPECT_EQ(std::move(big_first).Build().EdgeWeight(0, 1), 1e16);
  EXPECT_EQ(std::move(big_last).Build().EdgeWeight(0, 1), 1e16 + 2.0);
}

TEST(GraphBuilderTest, SelfLoopAllowed) {
  GraphBuilder b(2);
  b.AddEdge(0, 0, 1.0);
  CommGraph g = std::move(b).Build();
  EXPECT_TRUE(g.HasEdge(0, 0));
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(0), 1u);
}

TEST(CommGraphTest, BipartiteMetadata) {
  GraphBuilder b(4);
  b.SetBipartiteLeftSize(2);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 3, 1.0);
  CommGraph g = std::move(b).Build();
  EXPECT_TRUE(g.bipartite().IsBipartite());
  EXPECT_TRUE(g.InLeftPartition(0));
  EXPECT_TRUE(g.InLeftPartition(1));
  EXPECT_FALSE(g.InLeftPartition(2));
  EXPECT_FALSE(g.InLeftPartition(3));
}

TEST(CommGraphTest, NonBipartiteByDefault) {
  CommGraph g = MakeTriangle();
  EXPECT_FALSE(g.bipartite().IsBipartite());
}

TEST(CommGraphTest, FlatEdgesGroupedBySource) {
  CommGraph g = MakeTriangle();
  auto flat = g.Edges();
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[0].src, 0u);
  EXPECT_EQ(flat[0].dst, 1u);
  EXPECT_EQ(flat[1].src, 0u);
  EXPECT_EQ(flat[1].dst, 2u);
  EXPECT_EQ(flat[2].src, 1u);
  EXPECT_EQ(flat[3].src, 2u);
}

TEST(CommGraphTest, TotalWeightEqualsSumOfOutWeights) {
  CommGraph g = MakeTriangle();
  double sum = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) sum += g.OutWeight(v);
  EXPECT_DOUBLE_EQ(sum, g.TotalWeight());
}

TEST(CommGraphTest, InWeightSumEqualsTotal) {
  CommGraph g = MakeTriangle();
  double sum = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) sum += g.InWeight(v);
  EXPECT_DOUBLE_EQ(sum, g.TotalWeight());
}

TEST(GraphBuilderTest, LargerGraphCsrConsistency) {
  // Random-ish graph; verify in-edges are the transpose of out-edges.
  const size_t n = 50;
  GraphBuilder b(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if ((i * 31 + j * 17) % 7 == 0 && i != j) {
        b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j),
                  static_cast<double>(1 + (i + j) % 5));
      }
    }
  }
  CommGraph g = std::move(b).Build();
  size_t out_total = 0, in_total = 0;
  for (NodeId v = 0; v < n; ++v) {
    out_total += g.OutDegree(v);
    in_total += g.InDegree(v);
    for (const Edge& e : g.OutEdges(v)) {
      // The reverse entry must exist in e.node's in-edges.
      bool found = false;
      for (const Edge& r : g.InEdges(e.node)) {
        if (r.node == v) {
          EXPECT_DOUBLE_EQ(r.weight, e.weight);
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
  EXPECT_EQ(out_total, in_total);
  EXPECT_EQ(out_total, g.NumEdges());
}

}  // namespace
}  // namespace commsig

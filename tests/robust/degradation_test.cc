// The numeric degradation ladder: RWR convergence reporting and the
// RWR -> RWR^h fallback, plus the ingest-side guards (TryAddEdge, windower
// event dropping, FromTopK weight filtering) that keep corrupt values out
// of signatures.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/rwr.h"
#include "core/signature.h"
#include "graph/graph_builder.h"
#include "graph/windower.h"

namespace commsig {
namespace {

CommGraph RingGraph(size_t n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    builder.AddEdge(v, (v + 1) % n, 1.0);
  }
  return std::move(builder).Build();
}

TEST(RwrConvergenceTest, SolveReportsConvergence) {
  RwrScheme scheme({.k = 5}, RwrOptions{});
  auto solve = scheme.Solve(RingGraph(8), 0);
  EXPECT_TRUE(solve.converged);
  EXPECT_LT(solve.residual, scheme.rwr_options().tolerance);
  EXPECT_GT(solve.iterations, 0u);
  double sum = 0.0;
  for (double p : solve.probabilities) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RwrConvergenceTest, IterationCapReportsNonConvergence) {
  RwrOptions opts;
  opts.max_iterations = 1;  // cannot reach 1e-10 in one step
  opts.fallback_hops = 0;
  RwrScheme scheme({.k = 5}, opts);
  auto solve = scheme.Solve(RingGraph(16), 0);
  EXPECT_FALSE(solve.converged);
  EXPECT_EQ(solve.iterations, 1u);
  EXPECT_GT(solve.residual, opts.tolerance);
}

TEST(RwrConvergenceTest, TruncatedWalkConvergesByDefinition) {
  RwrOptions opts;
  opts.max_hops = 3;
  RwrScheme scheme({.k = 5}, opts);
  EXPECT_TRUE(scheme.Solve(RingGraph(16), 0).converged);
}

TEST(RwrConvergenceTest, ComputeFallsBackToTruncatedWalk) {
  RwrOptions starved;
  starved.max_iterations = 1;
  starved.fallback_hops = 4;
  RwrScheme scheme({.k = 5}, starved);

  RwrOptions truncated;
  truncated.max_hops = 4;
  RwrScheme reference({.k = 5}, truncated);

  CommGraph g = RingGraph(16);
  Signature fell_back = scheme.Compute(g, 0);
  Signature expected = reference.Compute(g, 0);
  ASSERT_EQ(fell_back.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fell_back.entries()[i].node, expected.entries()[i].node);
    EXPECT_DOUBLE_EQ(fell_back.entries()[i].weight,
                     expected.entries()[i].weight);
  }
}

TEST(RwrConvergenceTest, FallbackDisabledUsesUnconvergedVector) {
  RwrOptions opts;
  opts.max_iterations = 1;
  opts.fallback_hops = 0;
  RwrScheme scheme({.k = 5}, opts);
  // Still yields a (best-effort) signature; the point is it does not abort.
  Signature s = scheme.Compute(RingGraph(8), 0);
  EXPECT_FALSE(s.empty());
}

TEST(TryAddEdgeTest, RejectsWithoutMutating) {
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.TryAddEdge(0, 1, 2.0));
  EXPECT_FALSE(builder.TryAddEdge(4, 1, 1.0));  // src out of range
  EXPECT_FALSE(builder.TryAddEdge(0, 9, 1.0));  // dst out of range
  EXPECT_FALSE(builder.TryAddEdge(0, 1, 0.0));
  EXPECT_FALSE(builder.TryAddEdge(0, 1, -3.0));
  EXPECT_FALSE(
      builder.TryAddEdge(0, 1, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(
      builder.TryAddEdge(0, 1, std::numeric_limits<double>::infinity()));
  // Finite, but two such observations of one edge sum to infinity.
  EXPECT_FALSE(builder.TryAddEdge(0, 1, 1e308));
  EXPECT_FALSE(builder.TryAddEdge(
      0, 1, std::nextafter(kMaxRecordWeight, HUGE_VAL)));
  CommGraph g = std::move(builder).Build();
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 2.0);  // only the one good edge
}

TEST(WindowerRobustnessTest, DropsCorruptEventsInsteadOfCrashing) {
  TraceWindower windower(4, 100);
  std::vector<TraceEvent> events = {
      {0, 1, 10, 1.0},
      {9, 1, 20, 1.0},  // src out of universe
      {0, 7, 30, 1.0},  // dst out of universe
      {1, 2, 40, std::numeric_limits<double>::quiet_NaN()},
      {1, 2, 50, -2.0},
      {1, 2, 52, 1e308},  // each finite, but their sum is not
      {1, 2, 54, 1e308},
      {2, 3, 60, 4.0},
  };
  auto graphs = windower.Split(events);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_DOUBLE_EQ(graphs[0].TotalWeight(), 5.0);  // 1.0 + 4.0
}

TEST(WindowerRobustnessTest, ZeroWindowLengthClampedNotUb) {
  TraceWindower windower(2, 0);  // would divide by zero unclamped
  EXPECT_EQ(windower.window_length(), 1u);
  EXPECT_EQ(windower.WindowOf(5), 5u);
}

TEST(FromTopKGuardTest, NonFiniteWeightsNeverEnterSignatures) {
  std::vector<Signature::Entry> candidates = {
      {0, 0.5},
      {1, std::numeric_limits<double>::infinity()},
      {2, std::numeric_limits<double>::quiet_NaN()},
      {3, 0.25},
      {4, -1.0},
      {5, 0.0},
  };
  Signature s = Signature::FromTopK(std::move(candidates), 10);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.entries()[0].node, 0u);
  EXPECT_EQ(s.entries()[1].node, 3u);
  for (const auto& e : s.entries()) {
    EXPECT_TRUE(std::isfinite(e.weight));
    EXPECT_GT(e.weight, 0.0);
  }
}

}  // namespace
}  // namespace commsig

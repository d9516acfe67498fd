// Randomized property tests: invariants that must hold on *any* input,
// checked over seeded random graphs and traces (TEST_P over seeds).

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/distance.h"
#include "core/incremental.h"
#include "core/rwr.h"
#include "core/scheme.h"
#include "core/top_talkers.h"
#include "core/unexpected_talkers.h"
#include "eval/masquerade_sim.h"
#include "eval/perturb.h"
#include "graph/graph_builder.h"
#include "graph/graph_delta.h"
#include "graph/windower.h"
#include "obs/metrics.h"
#include "ref/rwr.h"
#include "sketch/streaming_signatures.h"

namespace commsig {
namespace {

/// A random weighted digraph over n nodes with ~density*n^2 edges.
CommGraph RandomGraph(size_t n, double density, Rng& rng) {
  GraphBuilder b(n);
  size_t edges = static_cast<size_t>(density * static_cast<double>(n * n));
  for (size_t e = 0; e < edges; ++e) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(n));
    NodeId dst = static_cast<NodeId>(rng.UniformInt(n));
    if (src == dst) continue;
    b.AddEdge(src, dst, 1.0 + static_cast<double>(rng.UniformInt(9)));
  }
  return std::move(b).Build();
}

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Graph invariants.
// ---------------------------------------------------------------------------

TEST_P(SeededPropertyTest, BuilderTotalsMatchInsertedWeight) {
  Rng rng(GetParam());
  GraphBuilder b(30);
  double total = 0.0;
  for (int e = 0; e < 200; ++e) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(30));
    NodeId dst = static_cast<NodeId>(rng.UniformInt(30));
    double w = rng.UniformDouble() + 0.1;
    b.AddEdge(src, dst, w);
    total += w;
  }
  CommGraph g = std::move(b).Build();
  EXPECT_NEAR(g.TotalWeight(), total, 1e-9);
  double out_sum = 0.0, in_sum = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    out_sum += g.OutWeight(v);
    in_sum += g.InWeight(v);
  }
  EXPECT_NEAR(out_sum, total, 1e-9);
  EXPECT_NEAR(in_sum, total, 1e-9);
}

TEST_P(SeededPropertyTest, TransposeConsistency) {
  Rng rng(GetParam());
  CommGraph g = RandomGraph(25, 0.1, rng);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const Edge& e : g.OutEdges(v)) {
      EXPECT_DOUBLE_EQ(g.EdgeWeight(v, e.node), e.weight);
      bool found = false;
      for (const Edge& r : g.InEdges(e.node)) {
        if (r.node == v && r.weight == e.weight) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

// ---------------------------------------------------------------------------
// Scheme invariants.
// ---------------------------------------------------------------------------

/// Applies a node-id permutation to a graph.
CommGraph PermuteGraph(const CommGraph& g, const std::vector<NodeId>& perm) {
  GraphBuilder b(g.NumNodes());
  for (const auto& e : g.Edges()) {
    b.AddEdge(perm[e.src], perm[e.dst], e.weight);
  }
  return std::move(b).Build();
}

TEST_P(SeededPropertyTest, OneHopSchemesAreLabelEquivariant) {
  // scheme(perm(G), perm(v)) == perm(scheme(G, v)) when no top-k cut is in
  // play (k >= degree), for both one-hop schemes.
  Rng rng(GetParam());
  CommGraph g = RandomGraph(20, 0.15, rng);
  std::vector<NodeId> perm(20);
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  CommGraph pg = PermuteGraph(g, perm);

  TopTalkersScheme tt({.k = 100});
  UnexpectedTalkersScheme ut({.k = 100}, UtWeighting::kInverseInDegree);
  for (const SignatureScheme* scheme :
       {static_cast<const SignatureScheme*>(&tt),
        static_cast<const SignatureScheme*>(&ut)}) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      Signature original = scheme->Compute(g, v);
      Signature permuted = scheme->Compute(pg, perm[v]);
      ASSERT_EQ(original.size(), permuted.size());
      for (const auto& entry : original.entries()) {
        EXPECT_NEAR(permuted.WeightOf(perm[entry.node]), entry.weight,
                    1e-12);
      }
    }
  }
}

TEST_P(SeededPropertyTest, RwrMassConservationOnRandomGraphs) {
  Rng rng(GetParam());
  CommGraph g = RandomGraph(40, 0.08, rng);
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    for (size_t hops : {0u, 1u, 4u}) {
      RwrScheme rwr({.k = 10},
                    {.reset = 0.15, .max_hops = hops, .traversal = mode});
      NodeId start = static_cast<NodeId>(rng.UniformInt(40));
      auto r = rwr.StationaryVector(g, start);
      double total = std::accumulate(r.begin(), r.end(), 0.0);
      EXPECT_NEAR(total, 1.0, 1e-8)
          << "mode " << static_cast<int>(mode) << " hops " << hops;
      for (double p : r) EXPECT_GE(p, -1e-15);
    }
  }
}

TEST_P(SeededPropertyTest, SignatureNeverContainsFocalNode) {
  Rng rng(GetParam());
  CommGraph g = RandomGraph(25, 0.2, rng);
  SchemeOptions opts{.k = 50};
  for (const char* spec : {"tt", "ut", "rwr(c=0.1,h=3)"}) {
    auto scheme = *CreateScheme(spec, opts);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_FALSE(scheme->Compute(g, v).Contains(v)) << spec;
    }
  }
}

// ---------------------------------------------------------------------------
// Distance invariants.
// ---------------------------------------------------------------------------

TEST_P(SeededPropertyTest, GraphDerivedDistancesStayInRange) {
  Rng rng(GetParam());
  CommGraph g = RandomGraph(30, 0.1, rng);
  TopTalkersScheme tt({.k = 5});
  std::vector<Signature> sigs;
  for (NodeId v = 0; v < g.NumNodes(); ++v) sigs.push_back(tt.Compute(g, v));
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    for (size_t i = 0; i < sigs.size(); i += 3) {
      for (size_t j = 0; j < sigs.size(); j += 5) {
        double d = Distance(kind, sigs[i], sigs[j]);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
        EXPECT_DOUBLE_EQ(d, Distance(kind, sigs[j], sigs[i]));
      }
      EXPECT_DOUBLE_EQ(Distance(kind, sigs[i], sigs[i]), 0.0);
    }
  }
}

TEST_P(SeededPropertyTest, JaccardTriangleInequality) {
  // Jaccard distance is a metric; spot-check the triangle inequality on
  // random signature triples.
  Rng rng(GetParam());
  auto random_sig = [&rng]() {
    std::vector<Signature::Entry> entries;
    size_t size = 1 + rng.UniformInt(8);
    for (size_t i = 0; i < size; ++i) {
      entries.push_back({static_cast<NodeId>(rng.UniformInt(15)), 1.0});
    }
    return Signature::FromTopK(std::move(entries), 100);
  };
  for (int trial = 0; trial < 200; ++trial) {
    Signature a = random_sig(), b = random_sig(), c = random_sig();
    double ab = Distance(DistanceKind::kJaccard, a, b);
    double bc = Distance(DistanceKind::kJaccard, b, c);
    double ac = Distance(DistanceKind::kJaccard, a, c);
    EXPECT_LE(ac, ab + bc + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Eval invariants.
// ---------------------------------------------------------------------------

TEST_P(SeededPropertyTest, PerturbKeepsWeightAccounting) {
  Rng rng(GetParam());
  CommGraph g = RandomGraph(30, 0.1, rng);
  if (g.NumEdges() == 0) return;
  const double alpha = 0.3;
  CommGraph p = Perturb(g, {.insert_fraction = alpha,
                            .delete_fraction = alpha,
                            .seed = GetParam() * 31});
  // Deletions remove ~alpha*|E| units; insertions add ~alpha*|E| draws
  // from the weight pool (mean = mean edge weight). Bound loosely.
  const double mean_w = g.TotalWeight() / static_cast<double>(g.NumEdges());
  const double delta = p.TotalWeight() - g.TotalWeight();
  const double budget = alpha * static_cast<double>(g.NumEdges());
  EXPECT_GE(delta, -budget * 1.1 - 1.0);
  EXPECT_LE(delta, budget * mean_w * 2.0 + 1.0);
  EXPECT_EQ(p.NumNodes(), g.NumNodes());
}

TEST_P(SeededPropertyTest, MasqueradePreservesDegreeMultiset) {
  // Relabelling is a bijection, so the multiset of (out-degree, in-degree)
  // pairs is invariant.
  Rng rng(GetParam());
  CommGraph g = RandomGraph(30, 0.1, rng);
  std::vector<NodeId> pool(30);
  std::iota(pool.begin(), pool.end(), 0);
  MasqueradePlan plan = PlanMasquerade(pool, 0.5, GetParam());
  CommGraph m = ApplyMasquerade(g, plan);
  std::multiset<std::pair<size_t, size_t>> before, after;
  for (NodeId v = 0; v < 30; ++v) {
    before.emplace(g.OutDegree(v), g.InDegree(v));
    after.emplace(m.OutDegree(v), m.InDegree(v));
  }
  EXPECT_EQ(before, after);
  EXPECT_DOUBLE_EQ(m.TotalWeight(), g.TotalWeight());
}

TEST_P(SeededPropertyTest, WindowerPartitionsEventWeight) {
  Rng rng(GetParam());
  std::vector<TraceEvent> events;
  double total = 0.0;
  for (int e = 0; e < 300; ++e) {
    TraceEvent ev{static_cast<NodeId>(rng.UniformInt(10)),
                  static_cast<NodeId>(rng.UniformInt(10)),
                  rng.UniformInt(1000), rng.UniformDouble() + 0.1};
    total += ev.weight;
    events.push_back(ev);
  }
  TraceWindower windower(10, 100);
  auto windows = windower.Split(events);
  double window_total = 0.0;
  for (const auto& g : windows) window_total += g.TotalWeight();
  EXPECT_NEAR(window_total, total, 1e-9);
}

/// The window that sums `observations` in the given arrival order.
CommGraph Aggregate(size_t n, const std::vector<TraceEvent>& observations) {
  GraphBuilder b(n);
  for (const TraceEvent& e : observations) b.AddEdge(e.src, e.dst, e.weight);
  return std::move(b).Build();
}

TEST_P(SeededPropertyTest, GraphDeltaMatchesFullRowComparison) {
  // GraphDelta compares out-rows exactly and derives in-row changes from
  // the changed out-rows. Every flag and the changed-row list must equal a
  // brute-force comparison of both windows' full rows and in-degrees: on one set of observations added in two arrival orders
  // (bit-equal sums only for integer weights), on a perturbed copy, and on
  // consecutive windows of a sliding split.
  constexpr size_t kNodes = 20;
  Rng rng(GetParam());
  std::vector<std::pair<CommGraph, CommGraph>> pairs;
  for (int trial = 0; trial < 4; ++trial) {
    const bool integral = trial % 2 == 0;
    auto observation = [&](uint64_t time) {
      const double w = integral ? 1.0 + static_cast<double>(rng.UniformInt(9))
                                : rng.UniformDouble() + 0.1;
      return TraceEvent{static_cast<NodeId>(rng.UniformInt(kNodes)),
                        static_cast<NodeId>(rng.UniformInt(kNodes)), time, w};
    };
    std::vector<TraceEvent> seen(60 + rng.UniformInt(60));
    for (TraceEvent& e : seen) e = observation(rng.UniformInt(400));
    std::vector<TraceEvent> reordered = seen;
    std::shuffle(reordered.begin(), reordered.end(), rng);
    pairs.emplace_back(Aggregate(kNodes, seen), Aggregate(kNodes, reordered));
    if (integral) {
      EXPECT_TRUE(GraphDelta(pairs.back().first, pairs.back().second)
                      .changed_row_nodes()
                      .empty());
    }
    // Drop a few observations, add a few and reweight one.
    std::vector<TraceEvent> perturbed = reordered;
    perturbed.resize(perturbed.size() - rng.UniformInt(4));
    for (uint64_t i = rng.UniformInt(4); i > 0; --i) {
      perturbed.push_back(observation(0));
    }
    perturbed[rng.UniformInt(perturbed.size())].weight += 1.0;
    pairs.emplace_back(Aggregate(kNodes, seen), Aggregate(kNodes, perturbed));
    std::vector<CommGraph> windows =
        TraceWindower(kNodes, 100).SplitSliding(seen, 25);
    for (size_t w = 1; w < windows.size(); ++w) {
      pairs.emplace_back(std::move(windows[w - 1]), windows[w]);
    }
  }

  for (const auto& [a, b] : pairs) {
    GraphDelta delta(a, b);
    std::vector<NodeId> changed_rows;
    for (NodeId v = 0; v < kNodes; ++v) {
      const bool out = !std::ranges::equal(a.OutEdges(v), b.OutEdges(v));
      const bool in = !std::ranges::equal(a.InEdges(v), b.InEdges(v));
      bool local = out;
      for (const CommGraph* g : {&a, &b}) {
        for (const Edge& e : g->OutEdges(v)) {
          local = local || a.InDegree(e.node) != b.InDegree(e.node);
        }
      }
      EXPECT_EQ(delta.OutChanged(v), out) << v;
      EXPECT_EQ(delta.InChanged(v), in) << v;
      EXPECT_EQ(delta.LocalDirty(v), local) << v;
      if (out || in) changed_rows.push_back(v);
    }
    EXPECT_EQ(std::vector<NodeId>(delta.changed_row_nodes().begin(),
                                  delta.changed_row_nodes().end()),
              changed_rows);
  }
}

// ---------------------------------------------------------------------------
// Incremental RWR^h drift rule.
// ---------------------------------------------------------------------------

constexpr size_t kDriftNodes = 60;

/// An always-on core (senders 0-9 to receivers 10-16) plus random bursts
/// to any node: most rows shared, a few changing per slot.
std::vector<TraceEvent> BurstyTrace(Rng& rng) {
  std::vector<TraceEvent> events;
  for (uint64_t t = 0; t < 40; ++t) {
    for (NodeId v = 0; v < 10; ++v) {
      events.push_back({v, static_cast<NodeId>(10 + v % 7), t, 1.0});
      if (rng.Bernoulli(0.15)) {
        const auto d = static_cast<NodeId>(rng.UniformInt(kDriftNodes));
        if (d != v) events.push_back({v, d, t, 1.0 + rng.UniformDouble()});
      }
    }
  }
  return events;
}

/// Twelve hosts, each with a private four-node cluster it talks to only
/// while bursting, with slot-dependent weights.
std::vector<TraceEvent> ClusteredTrace(Rng& rng) {
  std::vector<TraceEvent> events;
  for (NodeId host = 0; host < 12; ++host) {
    bool bursting = false;
    for (uint64_t t = 0; t < 40; ++t) {
      bursting = bursting ? !rng.Bernoulli(1.0 / 3.0) : rng.Bernoulli(0.1);
      if (!bursting) continue;
      for (NodeId j = 0; j < 4; ++j) {
        events.push_back({host, static_cast<NodeId>(12 + 4 * host + j), t,
                          1.0 + 0.1 * static_cast<double>((t * 31 + j) % 7)});
      }
    }
  }
  return events;
}

/// L1 distance between x's normalized transition rows in two windows by a
/// dense scan of every column: the out-half and (symmetric traversal) the
/// in-half summed apart, capped at 2; 2 for a walkable <-> dangling flip.
double DenseRowDrift(const CommGraph& old_g, const CommGraph& new_g, NodeId x,
                     bool symmetric) {
  const double old_norm =
      old_g.OutWeight(x) + (symmetric ? old_g.InWeight(x) : 0.0);
  const double new_norm =
      new_g.OutWeight(x) + (symmetric ? new_g.InWeight(x) : 0.0);
  if ((old_norm > 0.0) != (new_norm > 0.0)) return 2.0;
  if (old_norm == 0.0) return 0.0;
  const double inv_old = 1.0 / old_norm;
  const double inv_new = 1.0 / new_norm;
  double out = 0.0, in = 0.0;
  for (NodeId y = 0; y < new_g.NumNodes(); ++y) {
    out += std::fabs(new_g.EdgeWeight(x, y) * inv_new -
                     old_g.EdgeWeight(x, y) * inv_old);
    in += std::fabs(new_g.EdgeWeight(y, x) * inv_new -
                    old_g.EdgeWeight(y, x) * inv_old);
  }
  return std::min(symmetric ? out + in : out, 2.0);
}

/// A focal node's h-step walk as the reference tracks it: the final vector
/// r_h, the previous iterate r_{h−1}, and the drift accumulated since.
struct RefWalk {
  std::vector<double> last;
  std::vector<double> prior;
  double acc = 0.0;
};

RefWalk SolveRefWalk(const RwrOptions& opts, const CommGraph& g, NodeId v) {
  RefWalk walk;
  walk.last = ref::RwrSolve(opts, g, v).probabilities;
  walk.prior.assign(g.NumNodes(), 0.0);
  walk.prior[v] = 1.0;
  if (opts.max_hops > 1) {
    RwrOptions prior_opts = opts;
    prior_opts.max_hops = opts.max_hops - 1;
    walk.prior = ref::RwrSolve(prior_opts, g, v).probabilities;
  }
  return walk;
}

/// Σ r_h(x)·d(x) in ascending x over the final vector's support, or over
/// its interior — where r_{h−1} is nonzero too.
double WeightedDrift(const RefWalk& walk, const std::vector<double>& drift,
                     bool interior) {
  double sum = 0.0;
  for (size_t x = 0; x < drift.size(); ++x) {
    if (walk.last[x] == 0.0 || (interior && walk.prior[x] == 0.0)) continue;
    sum += walk.last[x] * drift[x];
  }
  return sum;
}

TEST_P(SeededPropertyTest, RwrHInteriorDriftRuleMatchesDenseReference) {
  // The incremental RWR^h sweep against a dense model of its reuse rule
  // built from ref::RwrSolve vectors: per window it re-solves exactly the
  // nodes whose accumulated interior drift passes incremental_max_drift,
  // reuses the rest unchanged and matches ComputeAll on the re-solved ones
  // bit for bit. From the same state, every node the interior rule
  // re-solves is one the full-support rule would re-solve.
  Rng rng(GetParam());
  std::vector<NodeId> focal(kDriftNodes);
  std::iota(focal.begin(), focal.end(), 0);
  obs::Counter& dirty_counter =
      obs::MetricsRegistry::Global().GetCounter("timeline/nodes_dirty");
  for (const std::vector<TraceEvent>& trace :
       {BurstyTrace(rng), ClusteredTrace(rng)}) {
    const std::vector<CommGraph> windows =
        TraceWindower(kDriftNodes, 8).SplitSliding(trace, 2);
    ASSERT_GT(windows.size(), 3u);
    for (TraversalMode mode :
         {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
      for (double c : {0.1, 0.5}) {
        for (size_t h : {1u, 2u, 3u}) {
          SCOPED_TRACE(testing::Message()
                       << "mode=" << static_cast<int>(mode) << " c=" << c
                       << " h=" << h);
          const RwrOptions opts{.reset = c, .max_hops = h, .traversal = mode};
          const bool symmetric = mode == TraversalMode::kSymmetric;
          const double factor =
              (1.0 - c) * (1.0 - std::pow(1.0 - c, static_cast<double>(h))) /
              c;
          auto scheme = MakeRwr({.k = 5}, opts);
          IncrementalSignatureEngine engine(*scheme, focal);
          std::vector<RefWalk> walks(focal.size());
          std::vector<Signature> previous;
          for (size_t w = 0; w < windows.size(); ++w) {
            const CommGraph& g = windows[w];
            std::vector<uint8_t> resolve(focal.size(), 1);
            if (w > 0) {
              std::vector<double> drift(g.NumNodes());
              for (NodeId x = 0; x < g.NumNodes(); ++x) {
                drift[x] = DenseRowDrift(windows[w - 1], g, x, symmetric);
              }
              for (size_t i = 0; i < focal.size(); ++i) {
                RefWalk& walk = walks[i];
                const double interior = WeightedDrift(walk, drift, true);
                const double full = WeightedDrift(walk, drift, false);
                const double acc_interior =
                    interior > 0.0 ? walk.acc + factor * interior : walk.acc;
                const double acc_full =
                    full > 0.0 ? walk.acc + factor * full : walk.acc;
                resolve[i] = acc_interior > opts.incremental_max_drift;
                if (resolve[i]) {
                  EXPECT_GT(acc_full, opts.incremental_max_drift)
                      << "window " << w << " node " << i;
                }
                walk.acc = acc_interior;
              }
            }
            [[maybe_unused]] const uint64_t dirty_before =
                dirty_counter.Value();
            const std::vector<Signature> got = engine.AdvanceBorrowed(g);
#ifndef COMMSIG_OBS_DISABLED
            EXPECT_EQ(dirty_counter.Value() - dirty_before,
                      static_cast<uint64_t>(
                          std::count(resolve.begin(), resolve.end(), 1)))
                << "window " << w;
#endif
            const std::vector<Signature> scratch = scheme->ComputeAll(g, focal);
            for (size_t i = 0; i < focal.size(); ++i) {
              if (resolve[i]) {
                EXPECT_EQ(got[i], scratch[i]) << "window " << w << " node " << i;
                walks[i] = SolveRefWalk(opts, g, focal[i]);
              } else {
                EXPECT_EQ(got[i], previous[i]) << "window " << w << " node " << i;
              }
            }
            previous = got;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming invariants.
// ---------------------------------------------------------------------------

TEST_P(SeededPropertyTest, StreamingTtExactWhenCapacitySuffices) {
  // With SpaceSaving capacity >= a node's distinct destinations, the
  // streaming TT signature equals the exact one.
  Rng rng(GetParam());
  std::vector<TraceEvent> events;
  GraphBuilder b(50);
  std::vector<NodeId> focal = {0, 1, 2};
  for (int e = 0; e < 400; ++e) {
    NodeId src = focal[rng.UniformInt(3)];
    NodeId dst = static_cast<NodeId>(10 + rng.UniformInt(20));
    double w = 1.0 + static_cast<double>(rng.UniformInt(5));
    events.push_back({src, dst, 0, w});
    b.AddEdge(src, dst, w);
  }
  CommGraph g = std::move(b).Build();

  StreamingSignatureBuilder::Options opts;
  opts.heavy_hitter_capacity = 64;  // > 20 distinct destinations
  StreamingSignatureBuilder builder(focal, opts);
  builder.ObserveAll(events);

  TopTalkersScheme tt({.k = 10});
  for (NodeId host : focal) {
    Signature exact = tt.Compute(g, host);
    Signature approx = builder.TopTalkers(host, 10);
    ASSERT_EQ(exact.size(), approx.size());
    for (const auto& entry : exact.entries()) {
      EXPECT_NEAR(approx.WeightOf(entry.node), entry.weight, 1e-12);
    }
  }
}

}  // namespace
}  // namespace commsig

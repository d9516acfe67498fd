#include "core/rwr_batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/rwr.h"
#include "data/flow_generator.h"
#include "graph/graph_builder.h"
#include "obs/obs.h"
#include "ref/rwr.h"

namespace commsig {
namespace {

// Random sparse digraph with guaranteed dangling sinks and one isolated
// node, so batches always cross the walkable/dangling partition.
CommGraph RandomGraph(size_t n, double edge_prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  GraphBuilder b(n);
  for (NodeId src = 0; src + 2 < n; ++src) {
    for (NodeId dst = 0; dst < n - 2; ++dst) {
      if (src == dst) continue;
      if (coin(rng) < edge_prob) b.AddEdge(src, dst, weight(rng));
    }
    // Every non-sink node also points at the sink, so directed walks hit a
    // dangling node quickly.
    if (coin(rng) < 0.5) b.AddEdge(src, n - 2, weight(rng));
  }
  // n-2 is a pure sink (dangling under directed traversal); n-1 is isolated
  // (dangling under both traversals).
  return std::move(b).Build();
}

std::vector<NodeId> AllNodes(const CommGraph& g) {
  std::vector<NodeId> nodes(g.NumNodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

// Per-column warm-start seeds, as SolveBatchSelect takes them.
using Seeds = std::span<const std::span<const Signature::Entry>>;

// Warm-start seeds for SolveBatchSelect, index-aligned with `donors`:
// every third column unseeded, the rest the unnormalized support of another
// column's solve, so most seeds put no mass on their own source.
std::vector<std::span<const Signature::Entry>> DonorSeeds(
    const std::vector<RwrScheme::RwrSolve>& donors,
    std::vector<std::vector<Signature::Entry>>& storage) {
  const size_t count = donors.size();
  storage.assign(count, {});
  std::vector<std::span<const Signature::Entry>> seeds(count);
  for (size_t b = 0; b < count; ++b) {
    if (b % 3 == 0) continue;
    const auto& donor = donors[(b * 7 + 3) % count].probabilities;
    for (NodeId u = 0; u < donor.size(); ++u) {
      if (donor[u] != 0.0) storage[b].push_back({u, 3.5 * donor[u]});
    }
    seeds[b] = storage[b];
  }
  return seeds;
}

// Seeds holding each column's whole support, as the incremental warm start
// stores it.
std::vector<std::span<const Signature::Entry>> SupportSeeds(
    const std::vector<std::vector<double>>& columns,
    std::vector<std::vector<Signature::Entry>>& storage) {
  storage.assign(columns.size(), {});
  std::vector<std::span<const Signature::Entry>> seeds(columns.size());
  for (size_t b = 0; b < columns.size(); ++b) {
    for (NodeId u = 0; u < columns[b].size(); ++u) {
      if (columns[b][u] != 0.0) storage[b].push_back({u, columns[b][u]});
    }
    seeds[b] = storage[b];
  }
  return seeds;
}

// SolveBatchSelect over `sources` in batches of `width`, each sink taking
// its column's whole support: each column as a dense n-vector, whether it
// converged, and the smallest support entry of any column.
struct ColumnSolves {
  std::vector<std::vector<double>> columns;
  std::vector<uint8_t> converged;
  double min_entry = std::numeric_limits<double>::infinity();
};

ColumnSolves SolveColumns(
    const RwrBatchEngine& engine, size_t num_nodes,
    std::span<const NodeId> sources, Seeds seeds = {},
    size_t width = RwrBatchEngine::kDefaultBatchWidth) {
  ColumnSolves out;
  std::vector<std::vector<Signature::Entry>> supports(width);
  std::vector<RwrColumnSink> sinks;
  std::vector<uint8_t> converged;
  for (size_t begin = 0; begin < sources.size(); begin += width) {
    const size_t count = std::min(width, sources.size() - begin);
    sinks.assign(count, RwrColumnSink(0));
    for (size_t b = 0; b < count; ++b) {
      supports[b].clear();
      sinks[b].support = &supports[b];
    }
    engine.SolveBatchSelect(
        sources.subspan(begin, count), RwrBatchEngine::LocalWorkspace(),
        sinks, converged,
        seeds.empty() ? seeds : seeds.subspan(begin, count));
    for (size_t b = 0; b < count; ++b) {
      std::vector<double>& col = out.columns.emplace_back(num_nodes, 0.0);
      for (const Signature::Entry& e : supports[b]) {
        col[e.node] = e.weight;
        out.min_entry = std::min(out.min_entry, e.weight);
      }
      out.converged.push_back(converged[b]);
    }
  }
  return out;
}

// The 40-host / 500-external flow windows, one node universe.
FlowDataset SmallFlowDataset(size_t num_windows) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 40;
  cfg.num_external_hosts = 500;
  cfg.num_windows = num_windows;
  cfg.seed = 77;
  return FlowTraceGenerator(cfg).Generate();
}

// `g` with `extra` isolated nodes appended: every original row keeps its
// edges, their order and their weights.
CommGraph PadWithIsolatedNodes(const CommGraph& g, size_t extra) {
  GraphBuilder b(g.NumNodes() + extra);
  for (const CommGraph::FlatEdge& e : g.Edges()) {
    b.AddEdge(e.src, e.dst, e.weight);
  }
  b.SetBipartiteLeftSize(g.bipartite().left_size);
  return std::move(b).Build();
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

TEST(TransitionCacheTest, NormsAndPartitionMatchGraph) {
  CommGraph g = RandomGraph(24, 0.2, 11);
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    TransitionCache cache(g, mode);
    ASSERT_EQ(cache.num_nodes(), g.NumNodes());
    size_t walkable = 0;
    for (NodeId x = 0; x < g.NumNodes(); ++x) {
      const double expected =
          g.OutWeight(x) +
          (mode == TraversalMode::kSymmetric ? g.InWeight(x) : 0.0);
      EXPECT_EQ(cache.norm(x), expected);
      EXPECT_EQ(cache.walkable(x), expected > 0.0);
      walkable += expected > 0.0 ? 1 : 0;
    }
    EXPECT_EQ(cache.num_walkable(), walkable);
    EXPECT_EQ(cache.num_dangling(), g.NumNodes() - walkable);
  }
  // The isolated node is dangling in every mode.
  TransitionCache sym(g, TraversalMode::kSymmetric);
  EXPECT_FALSE(sym.walkable(g.NumNodes() - 1));
  EXPECT_GT(sym.num_dangling(), 0u);
}

// RWR^h: the batched engine must reproduce the serial power iteration
// (the ref::RwrSolve oracle) bit-for-bit across traversal modes, reset
// strengths, hop depths, and dangling structure.
TEST(RwrBatchTest, TruncatedWalksBitIdenticalToSerial) {
  CommGraph g = RandomGraph(30, 0.15, 7);
  std::vector<NodeId> sources = AllNodes(g);
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    for (double c : {0.0, 0.1, 0.5}) {
      for (size_t h : {1u, 2u, 4u}) {
        RwrOptions opts{.reset = c, .max_hops = h, .traversal = mode};
        TransitionCache cache(g, mode);
        RwrBatchEngine engine(opts, cache);
        auto solves = engine.SolveBatch(sources);
        ASSERT_EQ(solves.size(), sources.size());
        for (size_t i = 0; i < sources.size(); ++i) {
          auto serial = ref::RwrSolve(opts, g, sources[i]);
          SCOPED_TRACE(testing::Message()
                       << "mode=" << static_cast<int>(mode) << " c=" << c
                       << " h=" << h << " v=" << sources[i]);
          EXPECT_TRUE(solves[i].converged);
          EXPECT_EQ(solves[i].iterations, serial.iterations);
          ASSERT_EQ(solves[i].probabilities.size(),
                    serial.probabilities.size());
          for (size_t u = 0; u < serial.probabilities.size(); ++u) {
            // Exact: same additions in the same order.
            EXPECT_EQ(solves[i].probabilities[u], serial.probabilities[u]);
          }
        }
      }
    }
  }
}

TEST(RwrBatchTest, BatchWidthDoesNotChangeResults) {
  CommGraph g = RandomGraph(20, 0.2, 3);
  std::vector<NodeId> sources = AllNodes(g);
  RwrOptions opts{.reset = 0.1, .max_hops = 3,
                  .traversal = TraversalMode::kSymmetric};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  auto whole = engine.SolveBatch(sources);
  for (size_t width : {size_t{1}, size_t{3}, sources.size()}) {
    for (size_t begin = 0; begin < sources.size(); begin += width) {
      const size_t count = std::min(width, sources.size() - begin);
      auto part = engine.SolveBatch(
          std::span<const NodeId>(sources).subspan(begin, count));
      for (size_t b = 0; b < count; ++b) {
        for (size_t u = 0; u < g.NumNodes(); ++u) {
          EXPECT_EQ(part[b].probabilities[u],
                    whole[begin + b].probabilities[u])
              << "width=" << width << " v=" << sources[begin + b];
        }
      }
    }
  }
}

TEST(RwrBatchTest, DuplicateSourcesGetIdenticalColumns) {
  CommGraph g = RandomGraph(16, 0.25, 5);
  RwrOptions opts{.reset = 0.2, .max_hops = 3};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  std::vector<NodeId> sources = {4, 7, 4, 4, 7};
  auto solves = engine.SolveBatch(sources);
  for (size_t u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(solves[0].probabilities[u], solves[2].probabilities[u]);
    EXPECT_EQ(solves[0].probabilities[u], solves[3].probabilities[u]);
    EXPECT_EQ(solves[1].probabilities[u], solves[4].probabilities[u]);
  }
}

TEST(RwrBatchTest, UnboundedWalksMatchSerialWithinTolerance) {
  CommGraph g = RandomGraph(24, 0.2, 19);
  std::vector<NodeId> sources = AllNodes(g);
  for (double c : {0.1, 0.5}) {
    RwrOptions opts{.reset = c, .max_hops = 0,
                    .traversal = TraversalMode::kSymmetric};
    TransitionCache cache(g, opts.traversal);
    RwrBatchEngine engine(opts, cache);
    auto solves = engine.SolveBatch(sources);
    for (size_t i = 0; i < sources.size(); ++i) {
      auto serial = ref::RwrSolve(opts, g, sources[i]);
      SCOPED_TRACE(testing::Message() << "c=" << c << " v=" << sources[i]);
      EXPECT_EQ(solves[i].converged, serial.converged);
      EXPECT_EQ(solves[i].iterations, serial.iterations);
      double sum = 0.0;
      for (size_t u = 0; u < g.NumNodes(); ++u) {
        EXPECT_NEAR(solves[i].probabilities[u], serial.probabilities[u],
                    1e-12);
        sum += solves[i].probabilities[u];
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);

      // Width 1 — what RwrScheme::Solve and Compute run — takes the
      // engine's scalar per-lane scatter and must equal the oracle exactly.
      auto single = engine.SolveBatch(
          std::span<const NodeId>(sources).subspan(i, 1));
      ASSERT_EQ(single.size(), 1u);
      EXPECT_EQ(single[0].converged, serial.converged);
      EXPECT_EQ(single[0].iterations, serial.iterations);
      EXPECT_EQ(single[0].probabilities, serial.probabilities);
    }
  }
}

// Warm starts: a seeded column starts from its seed normalized to sum 1
// (an empty seed keeps the unit start at the source) and must then follow
// the oracle's iteration from that same start bit for bit, with seeded
// and unseeded columns mixed in one batch. One more batch holds a single
// column: the isolated node n−1, seeded with another column's seed, which
// holds no mass on n−1 and covers more than n/4 rows. That batch is dense
// from its first iteration, and no seed entry, edge or pre-switch frontier
// row puts n−1 on the dense row list: only the batch's sources keep the
// reset mass it returns to n−1.
TEST(RwrBatchTest, SeededColumnsBitIdenticalToSerialFromSameSeed) {
  CommGraph g = RandomGraph(40, 0.1, 37);
  const NodeId isolated[] = {static_cast<NodeId>(g.NumNodes() - 1)};
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    // Symmetric c = 0.1 runs the Chebyshev recurrence; directed walks and
    // c = 0 keep the plain power iteration, where it converges (ρ = 1
    // would not).
    for (double c : {0.1, 0.0}) {
      for (size_t hops : {size_t{0}, size_t{3}}) {
        RwrOptions opts{.reset = c, .max_hops = hops, .traversal = mode};
        TransitionCache cache(g, mode);
        RwrBatchEngine engine(opts, cache);

        std::vector<NodeId> sources = AllNodes(g);
        std::vector<std::vector<Signature::Entry>> seed_storage;
        const auto seeds =
            DonorSeeds(engine.SolveBatch(sources), seed_storage);
        const Seeds isolated_seed = Seeds(seeds).subspan(1, 1);
        ASSERT_GT(isolated_seed[0].size(), g.NumNodes() / 4);
        for (const Signature::Entry& e : isolated_seed[0]) {
          ASSERT_NE(e.node, isolated[0]);
        }

        auto check = [&](std::span<const NodeId> batch, Seeds batch_seeds) {
          const ColumnSolves got = SolveColumns(engine, g.NumNodes(), batch,
                                                batch_seeds, batch.size());
          ASSERT_EQ(got.columns.size(), batch.size());
          for (size_t b = 0; b < batch.size(); ++b) {
            SCOPED_TRACE(testing::Message()
                         << "mode=" << static_cast<int>(mode) << " c=" << c
                         << " h=" << hops << " v=" << batch[b] << " b=" << b);
            std::vector<double> start(g.NumNodes(), 0.0);
            if (batch_seeds[b].empty()) {
              start[batch[b]] = 1.0;
            } else {
              double total = 0.0;
              for (const Signature::Entry& e : batch_seeds[b]) {
                total += e.weight;
              }
              for (const Signature::Entry& e : batch_seeds[b]) {
                start[e.node] = e.weight * (1.0 / total);
              }
            }
            auto serial = ref::RwrSolve(opts, g, batch[b], cache, start);
            EXPECT_TRUE(serial.converged);
            EXPECT_EQ(got.converged[b] != 0, serial.converged);
            EXPECT_EQ(got.columns[b], serial.probabilities);
          }
        };
        check(sources, seeds);
        check(isolated, isolated_seed);
      }
    }
  }
}

// A large sparse graph with a shallow hop bound keeps the frontier far
// below the dense-switch threshold, exercising the sparse iteration path
// end to end.
TEST(RwrBatchTest, FrontierSparsePathMatchesSerial) {
  CommGraph g = RandomGraph(600, 0.005, 23);
  RwrOptions opts{.reset = 0.1, .max_hops = 2,
                  .traversal = TraversalMode::kSymmetric};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  std::vector<NodeId> sources = {0, 17, 300, 599};
  auto solves = engine.SolveBatch(sources);
  for (size_t i = 0; i < sources.size(); ++i) {
    auto serial = ref::RwrSolve(opts, g, sources[i]);
    for (size_t u = 0; u < g.NumNodes(); ++u) {
      EXPECT_EQ(solves[i].probabilities[u], serial.probabilities[u])
          << "v=" << sources[i] << " u=" << u;
    }
  }
}

// One workspace keeps its all-zero invariant across changes of batch width
// and node count: on one thread it solves widths 16, 1, 7, 16 and 3,
// alternating between a sparse 600-node graph and a 40-node one whose
// frontier passes n/4 (the dense path), and every column still equals its
// single-source oracle. Truncated walks are compared bit for bit: even
// columns take the whole vector, odd ones the interior entries, those
// where the walk's previous iterate r_{h−1} is nonzero.
TEST(RwrBatchTest, WorkspaceSurvivesWidthAndSizeChanges) {
  const CommGraph sparse = RandomGraph(600, 0.005, 23);
  const CommGraph dense = RandomGraph(40, 0.1, 37);
  RwrBatchWorkspace ws;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  struct Step {
    size_t width;
    const CommGraph& g;
  };
  for (size_t hops : {size_t{2}, size_t{0}}) {
    const RwrOptions opts{.reset = 0.1, .max_hops = hops,
                          .traversal = TraversalMode::kSymmetric};
    const double bound = 2.0 * (1.0 - opts.reset) / opts.reset *
                         opts.tolerance;
    [[maybe_unused]] uint64_t all_sparse_solves = 0, dense_solves = 0;
    size_t next_source = 0;
    for (const Step& step : {Step{16, sparse}, Step{1, dense},
                             Step{7, sparse}, Step{16, dense},
                             Step{3, sparse}}) {
      const size_t width = step.width;
      const CommGraph& g = step.g;
      SCOPED_TRACE(testing::Message() << "h=" << hops << " width=" << width
                                      << " n=" << g.NumNodes());
      TransitionCache cache(g, opts.traversal);
      RwrBatchEngine engine(opts, cache);
      std::vector<NodeId> sources;
      for (size_t b = 0; b < width; ++b) {
        sources.push_back(
            static_cast<NodeId>((next_source++ * 37) % g.NumNodes()));
      }
      std::vector<std::vector<Signature::Entry>> supports(width);
      std::vector<RwrColumnSink> sinks(width, RwrColumnSink(0));
      for (size_t b = 0; b < width; ++b) {
        sinks[b].support = &supports[b];
        sinks[b].interior_only = hops > 0 && b % 2 == 1;
      }
      std::vector<uint8_t> converged;
      const uint64_t sparse_before =
          reg.GetCounter("rwr/batch_sparse_iterations").Value();
      const uint64_t dense_before =
          reg.GetCounter("rwr/batch_dense_iterations").Value();
      engine.SolveBatchSelect(sources, ws, sinks, converged);
      if (reg.GetCounter("rwr/batch_dense_iterations").Value() > dense_before) {
        ++dense_solves;
      } else if (reg.GetCounter("rwr/batch_sparse_iterations").Value() >
                 sparse_before) {
        ++all_sparse_solves;
      }
      for (size_t b = 0; b < width; ++b) {
        SCOPED_TRACE(testing::Message() << "v=" << sources[b]);
        const auto serial = ref::RwrSolve(opts, g, sources[b]);
        std::vector<Signature::Entry> expected;
        if (sinks[b].interior_only) {
          std::vector<double> prior(g.NumNodes(), 0.0);
          prior[sources[b]] = 1.0;
          if (hops > 1) {
            RwrOptions prior_opts = opts;
            prior_opts.max_hops = hops - 1;
            prior = ref::RwrSolve(prior_opts, g, sources[b]).probabilities;
          }
          for (NodeId x = 0; x < g.NumNodes(); ++x) {
            if (prior[x] != 0.0) {
              expected.push_back({x, serial.probabilities[x]});
            }
          }
          EXPECT_EQ(supports[b], expected);
          continue;
        }
        std::vector<double> got(g.NumNodes(), 0.0);
        for (const Signature::Entry& e : supports[b]) got[e.node] = e.weight;
        EXPECT_EQ(converged[b] != 0, serial.converged);
        if (hops > 0) {
          EXPECT_EQ(got, serial.probabilities);
        } else {
          EXPECT_LE(L1Distance(got, serial.probabilities), bound);
        }
      }
    }
#ifndef COMMSIG_OBS_DISABLED
    // The premise: both the sparse and the dense path ran.
    EXPECT_GT(dense_solves, 0u);
    if (hops > 0) {
      EXPECT_GT(all_sparse_solves, 0u);
    }
#endif
  }
}

TEST(RwrBatchTest, DanglingMassReturnsToStartInBatch) {
  // 0 -> 1 with 1 a sink: all walked mass must cycle back through the
  // start for every column, preserving total probability 1.
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  CommGraph g = std::move(b).Build();
  RwrOptions opts{.reset = 0.3, .max_hops = 0,
                  .traversal = TraversalMode::kDirected};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  std::vector<NodeId> sources = {0, 1};
  auto solves = engine.SolveBatch(sources);
  for (const auto& s : solves) {
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.probabilities[0] + s.probabilities[1], 1.0, 1e-9);
  }
  EXPECT_GT(solves[0].probabilities[0], solves[0].probabilities[1]);
  // Column rooted at the sink: mass never leaves node 1.
  EXPECT_NEAR(solves[1].probabilities[1], 1.0, 1e-9);
}

TEST(RwrBatchTest, EmptyBatchAndEmptyComputeAll) {
  CommGraph g = RandomGraph(8, 0.3, 2);
  RwrOptions opts{.reset = 0.1, .max_hops = 3};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  EXPECT_TRUE(engine.SolveBatch({}).empty());
  RwrScheme scheme({.k = 5}, opts);
  EXPECT_TRUE(scheme.ComputeAll(g, {}).empty());
}

TEST(RwrBatchTest, FallbackLadderMatchesSerialCompute) {
  CommGraph g = RandomGraph(30, 0.15, 13);
  // max_iterations far below what the tolerance needs: every unbounded walk
  // fails to converge and both paths must take the RWR^h fallback.
  RwrOptions opts{.reset = 0.1,
                  .max_hops = 0,
                  .tolerance = 1e-12,
                  .max_iterations = 3,
                  .fallback_hops = 2,
                  .traversal = TraversalMode::kSymmetric};
  RwrScheme scheme({.k = 10}, opts);
  std::vector<NodeId> nodes = AllNodes(g);
  auto batched = scheme.ComputeAll(g, nodes);
  ASSERT_EQ(batched.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    // The fallback runs a truncated walk, so equality is exact.
    EXPECT_EQ(batched[i], ref::RwrSignature({.k = 10}, opts, g, nodes[i]))
        << "v=" << nodes[i];
  }
}

TEST(RwrBatchTest, UnconvergedWithoutFallbackKeepsRawVector) {
  CommGraph g = RandomGraph(20, 0.2, 29);
  RwrOptions opts{.reset = 0.1,
                  .max_hops = 0,
                  .tolerance = 1e-12,
                  .max_iterations = 4,
                  .fallback_hops = 0,  // ladder disabled
                  .traversal = TraversalMode::kSymmetric};
  RwrScheme scheme({.k = 10}, opts);
  std::vector<NodeId> nodes = AllNodes(g);
  auto batched = scheme.ComputeAll(g, nodes);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(batched[i], ref::RwrSignature({.k = 10}, opts, g, nodes[i]))
        << "v=" << nodes[i];
  }
}

TEST(RwrBatchTest, ComputeAllMatchesPerNodeComputeOnFlowData) {
  FlowDataset ds = SmallFlowDataset(1);
  CommGraph g = ds.Windows()[0];
  for (const char* spec :
       {"rwr(c=0.1,h=3)", "rwr(c=0.5,h=1)", "rwr(c=0.1)"}) {
    auto scheme = CreateScheme(
        spec, {.k = 10, .restrict_to_opposite_partition = true});
    ASSERT_TRUE(scheme.ok()) << spec;
    const auto& rwr = static_cast<const RwrScheme&>(**scheme);
    auto batched = rwr.ComputeAll(g, ds.local_hosts);
    ASSERT_EQ(batched.size(), ds.local_hosts.size());
    for (size_t i = 0; i < ds.local_hosts.size(); ++i) {
      EXPECT_EQ(batched[i], rwr.Compute(g, ds.local_hosts[i]))
          << spec << " host " << i;
      EXPECT_EQ(batched[i],
                ref::RwrSignature(rwr.options(), rwr.rwr_options(), g,
                                  ds.local_hosts[i]))
          << spec << " host " << i;
    }
  }
}

// The fixed point itself: every converged column, cold or seeded, lies
// within (1−c)/c · tolerance of the direct solve in L1. The bound follows
// from the convergence test ‖y − x_t‖₁ < tolerance, because
// ‖(I − M)⁻¹‖₁ ≤ 1/c on zero-sum vectors; 1e-12 covers rounding.
TEST(RwrBatchTest, ConvergedColumnsWithinEpsilonOfDirectSolve) {
  FlowDataset ds = SmallFlowDataset(1);
  const CommGraph flow = ds.Windows()[0];
  const CommGraph random = RandomGraph(40, 0.1, 37);
  const std::vector<NodeId> random_sources = AllNodes(random);
  struct Case {
    const char* name;
    const CommGraph& g;
    std::span<const NodeId> sources;
  };
  for (const Case& cs : {Case{"random", random, random_sources},
                         Case{"flow", flow, ds.local_hosts}}) {
    for (TraversalMode mode :
         {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
      for (double c : {0.1, 0.5}) {
        const RwrOptions opts{.reset = c, .max_hops = 0, .traversal = mode};
        TransitionCache cache(cs.g, mode);
        RwrBatchEngine engine(opts, cache);
        const double bound = (1.0 - c) / c * opts.tolerance + 1e-12;
        std::vector<std::vector<double>> direct;
        for (NodeId v : cs.sources) {
          direct.push_back(ref::RwrDirectSolve(opts, cs.g, v));
        }
        std::vector<std::vector<Signature::Entry>> seed_storage;
        const auto seeds =
            DonorSeeds(engine.SolveBatch(cs.sources), seed_storage);
        for (bool seeded : {false, true}) {
          const ColumnSolves got =
              SolveColumns(engine, cs.g.NumNodes(), cs.sources,
                           seeded ? Seeds(seeds) : Seeds());
          for (size_t b = 0; b < cs.sources.size(); ++b) {
            SCOPED_TRACE(testing::Message()
                         << cs.name << " mode=" << static_cast<int>(mode)
                         << " c=" << c << " seeded=" << seeded
                         << " v=" << cs.sources[b]);
            EXPECT_TRUE(got.converged[b]);
            EXPECT_LE(L1Distance(got.columns[b], direct[b]), bound);
          }
        }
      }
    }
  }
}

// The Chebyshev schedule follows the solve's iteration count alone: 3n
// appended isolated nodes move the sparse→dense switch (n/4 rows) but
// change no bit of any cold or seeded column. The seeds are the hosts'
// solves on the previous window, so some hold mass on rows this window
// leaves isolated, which the frontier-sparse phase must keep tracking.
TEST(RwrBatchTest, IsolatedPaddingChangesNoColumnBit) {
  FlowDataset ds = SmallFlowDataset(2);
  const std::vector<CommGraph> windows = ds.Windows();
  const CommGraph& g = windows[1];
  const CommGraph padded = PadWithIsolatedNodes(g, 3 * g.NumNodes());
  const RwrOptions opts;  // unbounded, symmetric, c = 0.1
  TransitionCache cache(g, opts.traversal);
  TransitionCache padded_cache(padded, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  RwrBatchEngine padded_engine(opts, padded_cache);
  TransitionCache previous_cache(windows[0], opts.traversal);
  std::vector<std::vector<Signature::Entry>> seed_storage;
  const auto seeds = SupportSeeds(
      SolveColumns(RwrBatchEngine(opts, previous_cache), g.NumNodes(),
                   ds.local_hosts)
          .columns,
      seed_storage);
  for (bool seeded : {false, true}) {
    const Seeds batch_seeds = seeded ? Seeds(seeds) : Seeds();
    auto& dense_iters = obs::MetricsRegistry::Global().GetCounter(
        "rwr/batch_dense_iterations");
    [[maybe_unused]] const uint64_t dense_before = dense_iters.Value();
    const ColumnSolves base =
        SolveColumns(engine, g.NumNodes(), ds.local_hosts, batch_seeds);
    [[maybe_unused]] const uint64_t dense_mid = dense_iters.Value();
    const ColumnSolves pad = SolveColumns(padded_engine, padded.NumNodes(),
                                          ds.local_hosts, batch_seeds);
#ifndef COMMSIG_OBS_DISABLED
    // The premise: the unpadded solves go dense, the padded ones never do.
    EXPECT_GT(dense_mid - dense_before, 0u);
    EXPECT_EQ(dense_iters.Value() - dense_mid, 0u);
#endif
    for (size_t b = 0; b < ds.local_hosts.size(); ++b) {
      SCOPED_TRACE(testing::Message()
                   << "seeded=" << seeded << " v=" << ds.local_hosts[b]);
      std::vector<double> expected = base.columns[b];
      expected.resize(padded.NumNodes(), 0.0);
      EXPECT_EQ(base.converged[b], pad.converged[b]);
      EXPECT_EQ(pad.columns[b], expected);
    }
  }
}

// Symmetric c = 0.1 walks on a flow window average under 0.3 of the power
// iteration's ln(tolerance)/ln(1 − c) steps per column.
TEST(RwrBatchTest, ChebyshevCutsIterationsOnFlowWindow) {
  FlowDataset ds = SmallFlowDataset(1);
  const CommGraph g = ds.Windows()[0];
  const RwrOptions opts;  // unbounded, symmetric, c = 0.1
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  const auto solves = engine.SolveBatch(ds.local_hosts);
  double total = 0.0;
  for (const auto& s : solves) {
    EXPECT_TRUE(s.converged);
    total += static_cast<double>(s.iterations);
  }
  const double power_steps =
      std::log(opts.tolerance) / std::log(1.0 - opts.reset);
  EXPECT_LE(total / static_cast<double>(solves.size()), 0.3 * power_steps);
}

// Only plain power steps leave the engine, and on the flow windows they
// carry no negative mass, which would let the incremental drift estimate
// (Σ weight × row drift) undercount. Seeds are each host's solve on the
// previous window, as the incremental warm start uses them: they hold mass
// on rows the new window leaves isolated, where an extrapolated iterate
// swings negative.
TEST(RwrBatchTest, NoNegativeProbabilitiesOnFlowWindows) {
  FlowDataset ds = SmallFlowDataset(3);
  const std::vector<CommGraph> windows = ds.Windows();
  for (double c : {0.1, 0.5}) {
    const RwrOptions opts{.reset = c};
    std::vector<std::vector<Signature::Entry>> seed_storage;
    std::vector<std::span<const Signature::Entry>> seeds;
    for (size_t w = 0; w < windows.size(); ++w) {
      SCOPED_TRACE(testing::Message() << "c=" << c << " window " << w);
      TransitionCache cache(windows[w], opts.traversal);
      RwrBatchEngine engine(opts, cache);
      const auto cold = engine.SolveBatch(ds.local_hosts);
      for (const auto& s : cold) {
        EXPECT_GE(*std::min_element(s.probabilities.begin(),
                                    s.probabilities.end()),
                  0.0);
      }
      const size_t n = windows[w].NumNodes();
      const ColumnSolves supports = SolveColumns(engine, n, ds.local_hosts);
      EXPECT_GT(supports.min_entry, 0.0);
      if (!seeds.empty()) {
        EXPECT_GT(SolveColumns(engine, n, ds.local_hosts, seeds).min_entry,
                  0.0);
      }
      seeds = SupportSeeds(supports.columns, seed_storage);
    }
  }
}

}  // namespace
}  // namespace commsig

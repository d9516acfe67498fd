#include "core/incremental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "core/rwr_push.h"
#include "core/scheme.h"
#include "graph/graph_builder.h"
#include "graph/windower.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"

namespace commsig {
namespace {

constexpr size_t kNumNodes = 60;
constexpr uint64_t kWindowLength = 8;
constexpr uint64_t kStride = 2;  // 75% overlap

/// Bursty synthetic stream over a fixed universe: a stable always-on core
/// plus per-node random bursts, the regime sliding windows monitor.
std::vector<TraceEvent> BurstyEvents(uint64_t seed, uint64_t num_slots = 40) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<TraceEvent> events;
  for (uint64_t t = 0; t < num_slots; ++t) {
    for (NodeId v = 0; v < 10; ++v) {
      events.push_back({v, static_cast<NodeId>(10 + v % 7), t, 1.0});
      if (uniform(rng) < 0.15) {
        NodeId d = static_cast<NodeId>(rng() % kNumNodes);
        if (d != v) events.push_back({v, d, t, 1.0 + uniform(rng)});
      }
    }
  }
  return events;
}

std::vector<CommGraph> SlidingWindows(const std::vector<TraceEvent>& events) {
  TraceWindower w(kNumNodes, kWindowLength);
  return w.SplitSliding(events, kStride);
}

std::vector<NodeId> AllFocal() {
  std::vector<NodeId> focal(kNumNodes);
  for (NodeId v = 0; v < kNumNodes; ++v) focal[v] = v;
  return focal;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

double MaxWeightDeviation(const std::vector<Signature>& a,
                          const std::vector<Signature>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_dev = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return 1e300;
    for (size_t e = 0; e < a[i].size(); ++e) {
      if (a[i].entries()[e].node != b[i].entries()[e].node) return 1e300;
      max_dev = std::max(max_dev, std::abs(a[i].entries()[e].weight -
                                           b[i].entries()[e].weight));
    }
  }
  return max_dev;
}

TEST(IncrementalEngineTest, TopTalkersMatchesScratchBitForBit) {
  auto scheme = MakeTopTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(11));
  auto focal = AllFocal();
  ASSERT_GT(windows.size(), 3u);
  IncrementalSignatureEngine engine(*scheme, focal);
  for (const CommGraph& g : windows) {
    const auto& incr = engine.AdvanceBorrowed(g);
    auto scratch = scheme->ComputeAll(g, focal);
    EXPECT_EQ(incr, scratch);
  }
}

TEST(IncrementalEngineTest, UnexpectedTalkersMatchesScratchBitForBit) {
  auto scheme = MakeUnexpectedTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(12));
  auto focal = AllFocal();
  IncrementalSignatureEngine engine(*scheme, focal);
  for (const CommGraph& g : windows) {
    const auto& incr = engine.AdvanceBorrowed(g);
    auto scratch = scheme->ComputeAll(g, focal);
    EXPECT_EQ(incr, scratch);
  }
}

TEST(IncrementalEngineTest, RwrStaysWithinDocumentedEpsilon) {
  // The reuse bound admits deviations up to incremental_max_drift plus
  // solver tolerance on either side; 1e-5 comfortably covers the 1e-6
  // default bound and is far below any signature-level decision threshold.
  for (size_t max_hops : {size_t{0}, size_t{3}}) {
    RwrOptions rwr;
    rwr.max_hops = max_hops;
    auto scheme = MakeRwr({.k = 5}, rwr);
    auto windows = SlidingWindows(BurstyEvents(13));
    auto focal = AllFocal();
    IncrementalSignatureEngine engine(*scheme, focal);
    uint64_t dirty = 0, not_warm = 0;
    for (size_t w = 0; w < windows.size(); ++w) {
      const uint64_t dirty_before = CounterValue("timeline/nodes_dirty");
      const uint64_t not_warm_before =
          CounterValue("timeline/rwr_warm_start_fallbacks");
      const auto& incr = engine.AdvanceBorrowed(windows[w]);
      if (w > 0) {  // transitions only: the first window primes
        dirty += CounterValue("timeline/nodes_dirty") - dirty_before;
        not_warm += CounterValue("timeline/rwr_warm_start_fallbacks") -
                    not_warm_before;
      }
      auto scratch = scheme->ComputeAll(windows[w], focal);
      EXPECT_LE(MaxWeightDeviation(incr, scratch), 1e-5)
          << "h=" << max_hops;
    }
#ifndef COMMSIG_OBS_DISABLED
    // The unbounded run must keep exercising the warm rung: some dirty
    // node re-solved from its seeded support, not cold.
    if (max_hops == 0) {
      EXPECT_GT(dirty - not_warm, 0u);
    }
#endif
  }
}

CommGraph BuildGraph(size_t n, const std::vector<TraceEvent>& edges) {
  GraphBuilder b(n);
  for (const TraceEvent& e : edges) b.AddEdge(e.src, e.dst, e.weight);
  return std::move(b).Build();
}

// A c = 0 walk never returns to its source, so the drift sum weighed v's
// own changed row by r_h(v) = 0; the only other changed row, a's, is a
// single reweighted in-edge whose normalized transition row stays put. v
// was served its first-window signature {a: 0.5, b: 0.5}. At c = 0 a
// window that changes a transition row re-solves every node, and one that
// changes none reuses every node.
TEST(IncrementalEngineTest, RwrZeroResetFollowsChangedRow) {
  constexpr NodeId v = 0, a = 1, b = 2, x = 3;
  const std::vector<CommGraph> windows = {
      BuildGraph(4, {{v, a, 0, 1.0}, {v, b, 0, 1.0}, {x, b, 0, 1.0}}),
      BuildGraph(4, {{v, a, 0, 2.0}, {v, b, 0, 1.0}, {x, b, 0, 1.0}}),
      BuildGraph(4, {{v, a, 0, 2.0}, {v, b, 0, 1.0}, {x, b, 0, 1.0}}),
  };
  const std::vector<NodeId> focal = {v, a, b, x};
  for (size_t max_hops : {size_t{1}, size_t{2}, size_t{3}, size_t{0}}) {
    auto scheme = MakeRwr({.k = 5}, {.reset = 0.0, .max_hops = max_hops});
    IncrementalSignatureEngine engine(*scheme, focal);
    engine.AdvanceBorrowed(windows[0]);
    for (size_t w = 1; w < windows.size(); ++w) {
      [[maybe_unused]] const uint64_t dirty_before =
          CounterValue("timeline/nodes_dirty");
      EXPECT_EQ(engine.AdvanceBorrowed(windows[w]),
                scheme->ComputeAll(windows[w], focal))
          << "h=" << max_hops << " window " << w;
#ifndef COMMSIG_OBS_DISABLED
      EXPECT_EQ(CounterValue("timeline/nodes_dirty") - dirty_before,
                w == 1 ? focal.size() : 0u)
          << "h=" << max_hops << " window " << w;
#endif
    }
    if (max_hops == 1) {
      const Signature& sig = engine.signatures()[0];
      EXPECT_DOUBLE_EQ(sig.WeightOf(a), 2.0 / 3.0);
      EXPECT_DOUBLE_EQ(sig.WeightOf(b), 1.0 / 3.0);
    }
  }
}

// An h-step walk reads only the rows within h − 1 hops of its source. Here
// the only changed rows, b's and d's, lie exactly h = 2 hops from v, so v
// is reused — and its signature is still ComputeAll's, bit for bit. A
// drift sum over v's whole support counted them and re-solved v.
TEST(IncrementalEngineTest, RwrHReusesNodeWhoseChangedRowsLieHHopsAway) {
  constexpr NodeId v = 0, a = 1, b = 2, d = 3;
  auto window = [&](double weight) {
    return BuildGraph(4, {{v, a, 0, 1.0},
                          {a, b, 0, 1.0},
                          {a, d, 0, 1.0},
                          {b, d, 0, weight}});
  };
  const std::vector<CommGraph> windows = {window(1.0), window(5.0)};
  const std::vector<NodeId> focal = {v};
  auto scheme = MakeRwr({.k = 5}, {.reset = 0.1, .max_hops = 2});
  IncrementalSignatureEngine engine(*scheme, focal);
  engine.AdvanceBorrowed(windows[0]);
  [[maybe_unused]] const uint64_t dirty_before =
      CounterValue("timeline/nodes_dirty");
  EXPECT_EQ(engine.AdvanceBorrowed(windows[1]),
            scheme->ComputeAll(windows[1], focal));
#ifndef COMMSIG_OBS_DISABLED
  EXPECT_EQ(CounterValue("timeline/nodes_dirty") - dirty_before, 0u);
#endif
}

TEST(IncrementalEngineTest, RwrUnconvergedWarmStartsEndOnTruncatedFallback) {
  // An iteration cap no start converges under: each dirty node's seeded
  // column misses tolerance, re-solves cold, misses again and ends on the
  // truncated RWR^fallback_hops walk — counted once under each counter.
  RwrOptions rwr;
  rwr.max_iterations = 2;
  rwr.fallback_hops = 2;
  rwr.incremental_warm_drift = 1e300;  // every dirty node is warm-eligible
  auto scheme = MakeRwr({.k = 5}, rwr);
  RwrOptions truncated = rwr;
  truncated.max_hops = rwr.fallback_hops;
  auto fallback = MakeRwr({.k = 5}, truncated);

  auto windows = SlidingWindows(BurstyEvents(13));
  // The always-on core (senders 0-9, receivers 10-16): walkable in every
  // window, so none of them converges in two steps. An isolated node
  // would: its unit mass never moves.
  std::vector<NodeId> focal(17);
  std::iota(focal.begin(), focal.end(), 0);
  IncrementalSignatureEngine engine(*scheme, focal);
  std::vector<Signature> previous = engine.AdvanceBorrowed(windows[0]);
  EXPECT_EQ(previous, fallback->ComputeAll(windows[0], focal));
  uint64_t dirty = 0;
  for (size_t w = 1; w < windows.size(); ++w) {
    const uint64_t dirty_before = CounterValue("timeline/nodes_dirty");
    const uint64_t warm_before =
        CounterValue("timeline/rwr_warm_start_fallbacks");
    const uint64_t fallbacks_before = CounterValue("robust/rwr_fallbacks");
    const auto& incr = engine.AdvanceBorrowed(windows[w]);
    const uint64_t window_dirty =
        CounterValue("timeline/nodes_dirty") - dirty_before;
    EXPECT_EQ(CounterValue("timeline/rwr_warm_start_fallbacks") - warm_before,
              window_dirty)
        << "window " << w;
    EXPECT_EQ(CounterValue("robust/rwr_fallbacks") - fallbacks_before,
              window_dirty)
        << "window " << w;
    dirty += window_dirty;

    // Re-solved nodes hold the truncated walk's signature; the rest were
    // reused from the previous window.
    auto expected = fallback->ComputeAll(windows[w], focal);
    for (size_t i = 0; i < focal.size(); ++i) {
      if (incr[i] == expected[i]) continue;
      EXPECT_EQ(incr[i], previous[i]) << "window " << w << " node " << i;
    }
    previous = incr;
  }
#ifndef COMMSIG_OBS_DISABLED
  EXPECT_GT(dirty, 0u);
#endif
}

TEST(IncrementalEngineTest, RwrPushMatchesScratch) {
  // RwrPush's incremental override recomputes dirty nodes with its own
  // solver; results must equal its from-scratch sweep exactly.
  auto scheme = MakeRwrPush({.k = 5}, {});
  auto windows = SlidingWindows(BurstyEvents(14));
  auto focal = AllFocal();
  IncrementalSignatureEngine engine(*scheme, focal);
  for (const CommGraph& g : windows) {
    const auto& incr = engine.AdvanceBorrowed(g);
    auto scratch = scheme->ComputeAll(g, focal);
    EXPECT_EQ(incr, scratch);
  }
}

TEST(IncrementalEngineTest, RebuildMidSequenceIsDeterministic) {
  // Checkpoint/restore drops the engine's carried state by design: a
  // restored pipeline rebuilds the engine and re-primes. For exact schemes
  // the rebuilt timeline must equal the continuous one bit-for-bit.
  auto scheme = MakeUnexpectedTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(16));
  auto focal = AllFocal();
  ASSERT_GT(windows.size(), 6u);
  const size_t restore_at = windows.size() / 2;

  IncrementalSignatureEngine continuous(*scheme, focal);
  std::vector<std::vector<Signature>> full;
  for (const CommGraph& g : windows) full.push_back(continuous.AdvanceBorrowed(g));

  IncrementalSignatureEngine restored(*scheme, focal);
  for (size_t w = 0; w < restore_at; ++w) restored.AdvanceBorrowed(windows[w]);
  restored.Reset();  // the restore point: all carried state gone
  EXPECT_EQ(restored.windows_advanced(), 0u);
  for (size_t w = restore_at; w < windows.size(); ++w) {
    EXPECT_EQ(restored.AdvanceBorrowed(windows[w]), full[w]);
  }
}

TEST(IncrementalEngineTest, FaultPerturbedStreamStaysEquivalent) {
  // Dropped / duplicated / corrupted events change *what* the windows hold,
  // never the incremental-vs-scratch contract: whatever graphs come out of
  // the (fault-filtering) windower, both paths must agree on them.
  FaultInjector::Options fopts;
  fopts.seed = 99;
  fopts.p_drop = 0.05;
  fopts.p_duplicate = 0.05;
  fopts.p_corrupt_weight = 0.03;
  fopts.p_corrupt_time = 0.03;
  FaultInjector injector(fopts);
  auto perturbed = injector.PerturbEvents(BurstyEvents(17));
  EXPECT_GT(injector.report().Total(), 0u);

  auto windows = SlidingWindows(perturbed);
  auto focal = AllFocal();
  for (const char* spec : {"tt", "ut"}) {
    auto scheme = CreateScheme(spec, {.k = 5});
    ASSERT_TRUE(scheme.ok());
    IncrementalSignatureEngine engine(**scheme, focal);
    for (const CommGraph& g : windows) {
      EXPECT_EQ(engine.AdvanceBorrowed(g), (*scheme)->ComputeAll(g, focal));
    }
  }
}

TEST(IncrementalEngineTest, EmptyFocalPopulation) {
  auto scheme = MakeTopTalkers({.k = 3});
  auto windows = SlidingWindows(BurstyEvents(18));
  IncrementalSignatureEngine engine(*scheme, {});
  for (const CommGraph& g : windows) {
    EXPECT_TRUE(engine.AdvanceBorrowed(g).empty());
  }
  EXPECT_EQ(engine.windows_advanced(), windows.size());
}

TEST(IncrementalEngineTest, SignatureAccessorTracksLatestWindow) {
  auto scheme = MakeTopTalkers({.k = 3});
  auto windows = SlidingWindows(BurstyEvents(19));
  auto focal = AllFocal();
  IncrementalSignatureEngine engine(*scheme, focal);
  EXPECT_TRUE(engine.signatures().empty());
  for (const CommGraph& g : windows) engine.AdvanceBorrowed(g);
  EXPECT_EQ(engine.signatures(),
            scheme->ComputeAll(windows.back(), focal));
}

}  // namespace
}  // namespace commsig

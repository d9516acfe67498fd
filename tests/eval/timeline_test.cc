#include "eval/timeline.h"

#include <gtest/gtest.h>

#include "core/scheme.h"
#include "graph/windower.h"

namespace commsig {
namespace {

Signature Sig(std::vector<Signature::Entry> entries) {
  return Signature::FromTopK(std::move(entries), 100);
}

const SignatureDistance kJac{DistanceKind::kJaccard};

TEST(TimelineTest, StableSignaturesGivePerfectTransitions) {
  std::vector<Signature> window = {Sig({{1, 1.0}}), Sig({{2, 1.0}})};
  std::vector<std::vector<Signature>> horizon = {window, window, window};
  auto transitions = PersistencePerTransition(horizon, kJac);
  ASSERT_EQ(transitions.size(), 2u);
  for (const auto& t : transitions) {
    EXPECT_DOUBLE_EQ(t.mean_persistence, 1.0);
    EXPECT_DOUBLE_EQ(t.std_persistence, 0.0);
  }
  EXPECT_EQ(transitions[0].from_window, 0u);
  EXPECT_EQ(transitions[1].from_window, 1u);
}

TEST(TimelineTest, SingleWindowHasNoTransitions) {
  std::vector<std::vector<Signature>> horizon = {{Sig({{1, 1.0}})}};
  EXPECT_TRUE(PersistencePerTransition(horizon, kJac).empty());
  EXPECT_TRUE(PersistenceByLag(horizon, kJac, 3).empty());
}

TEST(TimelineTest, DriftDecaysWithLag) {
  // One node whose signature drifts one element per window out of two:
  // lag-1 persistence > lag-2 > lag-3.
  std::vector<std::vector<Signature>> horizon;
  for (NodeId w = 0; w < 4; ++w) {
    horizon.push_back({Sig({{w, 1.0}, {w + 1, 1.0}})});
  }
  auto lags = PersistenceByLag(horizon, kJac, 3);
  ASSERT_EQ(lags.size(), 3u);
  EXPECT_EQ(lags[0].lag, 1u);
  // lag 1: overlap {w+1} of union 3 -> 1/3; lag 2+: disjoint -> 0.
  EXPECT_NEAR(lags[0].mean_persistence, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(lags[1].mean_persistence, 0.0);
  EXPECT_DOUBLE_EQ(lags[2].mean_persistence, 0.0);
  EXPECT_GE(lags[0].mean_persistence, lags[1].mean_persistence);
  EXPECT_GE(lags[1].mean_persistence, lags[2].mean_persistence);
}

TEST(TimelineTest, SampleCountsPoolAllValidPairs) {
  std::vector<Signature> window = {Sig({{1, 1.0}}), Sig({{2, 1.0}}),
                                   Sig({{3, 1.0}})};
  std::vector<std::vector<Signature>> horizon(5, window);
  auto lags = PersistenceByLag(horizon, kJac, 4);
  ASSERT_EQ(lags.size(), 4u);
  EXPECT_EQ(lags[0].samples, 4u * 3u);  // 4 transitions x 3 nodes
  EXPECT_EQ(lags[3].samples, 1u * 3u);
}

TEST(TimelineTest, MaxLagClampsToHorizon) {
  std::vector<std::vector<Signature>> horizon(3, {Sig({{1, 1.0}})});
  auto lags = PersistenceByLag(horizon, kJac, 99);
  EXPECT_EQ(lags.size(), 2u);
}

TEST(TimelineTest, IncrementalModeMatchesScratchTimeline) {
  // Sliding windows over a drifting stream: the incremental engine path
  // must produce the same per-window signatures as per-window ComputeAll
  // (bit-identical for the exact TT scheme), and therefore identical
  // persistence statistics.
  std::vector<TraceEvent> events;
  for (uint64_t t = 0; t < 30; ++t) {
    events.push_back({0, static_cast<NodeId>(2 + t % 3), t, 1.0});
    events.push_back({1, static_cast<NodeId>(2 + (t / 7) % 4), t, 2.0});
  }
  TraceWindower windower(8, /*window_length=*/8);
  auto windows = windower.SplitSliding(events, /*stride=*/2);
  ASSERT_GT(windows.size(), 4u);
  auto scheme = MakeTopTalkers({.k = 4});
  std::vector<NodeId> focal = {0, 1};

  std::vector<std::vector<Signature>> scratch;
  for (const CommGraph& g : windows) {
    scratch.push_back(scheme->ComputeAll(g, focal));
  }
  auto incremental = ComputeSignatureTimeline(*scheme, windows, focal);
  ASSERT_EQ(scratch.size(), windows.size());
  EXPECT_EQ(incremental, scratch);

  auto t_scratch = PersistencePerTransition(scratch, kJac);
  auto t_incr = PersistencePerTransition(incremental, kJac);
  ASSERT_EQ(t_scratch.size(), t_incr.size());
  for (size_t i = 0; i < t_scratch.size(); ++i) {
    EXPECT_DOUBLE_EQ(t_incr[i].mean_persistence, t_scratch[i].mean_persistence);
  }
}

}  // namespace
}  // namespace commsig

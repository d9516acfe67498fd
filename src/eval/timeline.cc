#include "eval/timeline.h"

#include <cassert>

#include "core/incremental.h"

namespace commsig {

std::vector<TransitionStats> PersistencePerTransition(
    const std::vector<std::vector<Signature>>& per_window,
    SignatureDistance dist) {
  std::vector<TransitionStats> out;
  for (size_t w = 0; w + 1 < per_window.size(); ++w) {
    assert(per_window[w].size() == per_window[w + 1].size());
    RunningStats stats;
    for (size_t i = 0; i < per_window[w].size(); ++i) {
      stats.Add(1.0 - dist(per_window[w][i], per_window[w + 1][i]));
    }
    out.push_back({w, stats.Mean(), stats.StdDev()});
  }
  return out;
}

std::vector<LagStats> PersistenceByLag(
    const std::vector<std::vector<Signature>>& per_window,
    SignatureDistance dist, size_t max_lag) {
  std::vector<LagStats> out;
  const size_t windows = per_window.size();
  for (size_t lag = 1; lag <= max_lag && lag < windows; ++lag) {
    RunningStats stats;
    for (size_t w = 0; w + lag < windows; ++w) {
      assert(per_window[w].size() == per_window[w + lag].size());
      for (size_t i = 0; i < per_window[w].size(); ++i) {
        stats.Add(1.0 - dist(per_window[w][i], per_window[w + lag][i]));
      }
    }
    out.push_back({lag, stats.Mean(), stats.StdDev(), stats.count()});
  }
  return out;
}

std::vector<std::vector<Signature>> ComputeSignatureTimeline(
    const SignatureScheme& scheme, std::span<const CommGraph> windows,
    std::span<const NodeId> nodes) {
  std::vector<std::vector<Signature>> per_window;
  per_window.reserve(windows.size());
  IncrementalSignatureEngine engine(
      scheme, std::vector<NodeId>(nodes.begin(), nodes.end()));
  // The windows span outlives the engine, so the zero-copy form applies.
  for (const CommGraph& g : windows) {
    per_window.push_back(engine.AdvanceBorrowed(g));
  }
  return per_window;
}

}  // namespace commsig

#include "graph/windower.h"

#include <algorithm>

#include "graph/graph_builder.h"
#include "obs/obs.h"

namespace commsig {

TraceWindower::TraceWindower(size_t num_nodes, uint64_t window_length,
                             uint64_t start_time, NodeId bipartite_left_size)
    : num_nodes_(num_nodes),
      window_length_(std::max<uint64_t>(window_length, 1)),
      start_time_(start_time),
      bipartite_left_size_(bipartite_left_size) {}

size_t TraceWindower::WindowOf(uint64_t time) const {
  if (time < start_time_) return static_cast<size_t>(-1);
  return static_cast<size_t>((time - start_time_) / window_length_);
}

std::vector<CommGraph> TraceWindower::Split(
    const std::vector<TraceEvent>& events) const {
  // With stride == length each event lands only in window (t - start) /
  // length, so the sliding split builds exactly the tumbling windows.
  return SplitSliding(events, window_length_);
}

std::vector<CommGraph> TraceWindower::SplitSliding(
    const std::vector<TraceEvent>& events, uint64_t stride) const {
  COMMSIG_SPAN("windower/split_sliding");
  stride = std::max<uint64_t>(stride, 1);
  // Event at offset d from start lands in windows w with
  // w*stride <= d < w*stride + length, i.e. w in [lo, hi] with hi =
  // d / stride and lo = 0 for d < length, else (d − length) / stride + 1.
  // With length = a·stride + b and d = q·stride + r, that lo is
  // q − a + 1, less one when r < b, so one division gives both ends.
  const uint64_t length_q = window_length_ / stride;
  const uint64_t length_r = window_length_ % stride;

  // An event in window SIZE_MAX (offset 2^64 - 1 at stride 1) would need
  // SIZE_MAX + 1 windows, which wraps to 0: it is dropped and counted like
  // a corrupt one.
  constexpr size_t kNoWindow = static_cast<size_t>(-1);

  // Builders are sized once, for windows 0 through the last one any event
  // reaches, so an absurd window count throws std::length_error before any
  // builder exists. The last window is the largest offset's, divided once;
  // only offset 2^64 - 1 at stride 1 reaches kNoWindow.
  bool any = false;
  uint64_t last = 0;
  for (const TraceEvent& e : events) {
    if (e.time < start_time_) continue;
    const uint64_t d = e.time - start_time_;
    if (stride == 1 && d == kNoWindow) continue;
    any = true;
    last = std::max(last, d);
  }
  const size_t num_windows = any ? static_cast<size_t>(last / stride) + 1 : 0;

  std::vector<GraphBuilder> builders;
  std::vector<size_t> events_per_window(num_windows, 0);
  builders.reserve(num_windows);
  for (size_t w = 0; w < num_windows; ++w) {
    builders.emplace_back(num_nodes_);
    builders.back().SetBipartiteLeftSize(bipartite_left_size_);
  }
  size_t dropped = 0;
  for (const TraceEvent& e : events) {
    if (e.time < start_time_) continue;
    const uint64_t d = e.time - start_time_;
    const uint64_t q = d / stride;
    const uint64_t r = d % stride;
    const size_t hi = static_cast<size_t>(q);
    const size_t lo =
        d < window_length_
            ? 0
            : static_cast<size_t>(q - length_q + 1 - (r < length_r ? 1 : 0));
    // Validate once per event, not once per covering window, so a corrupt
    // record counts as one drop regardless of overlap.
    bool ok = hi != kNoWindow;
    for (size_t w = lo; w <= hi && ok; ++w) {
      ok = builders[w].TryAddEdge(e.src, e.dst, e.weight);
      if (ok) ++events_per_window[w];
    }
    if (!ok) ++dropped;
  }
  if (dropped > 0) {
    COMMSIG_COUNTER_ADD("robust/windower_dropped_events", dropped);
  }

  std::vector<CommGraph> graphs;
  graphs.reserve(num_windows);
  for (auto& b : builders) {
    graphs.push_back(std::move(b).Build());
  }
  COMMSIG_COUNTER_ADD("windower/windows_built", num_windows);
  for (size_t w = 0; w < num_windows; ++w) {
    COMMSIG_HISTOGRAM_OBSERVE("windower/window_events", events_per_window[w]);
  }
  return graphs;
}

}  // namespace commsig

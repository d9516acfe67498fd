#ifndef COMMSIG_GRAPH_WINDOWER_H_
#define COMMSIG_GRAPH_WINDOWER_H_

#include <cstdint>
#include <vector>

#include "common/interner.h"
#include "graph/comm_graph.h"

namespace commsig {

/// One observed communication: `src` talked to `dst` at `time` with volume
/// `weight` (e.g. one flow record contributing some number of sessions).
/// Node ids refer to a shared Interner / node universe.
struct TraceEvent {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint64_t time = 0;
  double weight = 1.0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Splits an event stream into fixed-length time windows and aggregates each
/// window into a CommGraph over a common node universe — producing the
/// paper's sequence G_0, G_1, ... of window graphs.
///
/// Window w covers times [start + w*length, start + (w+1)*length). Events
/// before `start` are dropped.
class TraceWindower {
 public:
  /// `num_nodes`: size of the shared node universe.
  /// `window_length`: window extent; 0 (meaningless) is clamped to 1, so
  /// a bad value from a caller cannot divide by zero in WindowOf.
  /// `start_time`: timestamp where window 0 begins.
  /// `bipartite_left_size`: forwarded to every window graph (0 = general).
  TraceWindower(size_t num_nodes, uint64_t window_length,
                uint64_t start_time = 0, NodeId bipartite_left_size = 0);

  /// Buckets `events` (any order) and builds one graph per window, from
  /// window 0 through the last window containing an event. Windows with no
  /// events yield empty graphs over the same universe. Events with invalid
  /// node ids (>= num_nodes) or weights outside (0, kMaxRecordWeight] are
  /// dropped and counted under `robust/windower_dropped_events` — corrupt
  /// upstream records must not index out of bounds or poison edge weights. So is an
  /// event at offset 2^64 − 1 from the start at length 1, whose window
  /// count would not fit a size_t.
  std::vector<CommGraph> Split(const std::vector<TraceEvent>& events) const;

  /// Sliding/stepping variant: window w covers
  /// [start + w*stride, start + w*stride + length), so consecutive windows
  /// overlap by (length - stride) time units and each event lands in up to
  /// ceil(length / stride) windows. `stride` is clamped to >= 1; stride ==
  /// length degenerates to Split's tumbling windows. This is the window
  /// sequence the incremental signature engine consumes — the overlap
  /// fraction 1 - stride/length is what dirty-node reuse scales with.
  /// Event validation and drop accounting match Split.
  std::vector<CommGraph> SplitSliding(const std::vector<TraceEvent>& events,
                                      uint64_t stride) const;

  /// Window index for a timestamp, or SIZE_MAX if before start.
  size_t WindowOf(uint64_t time) const;

  size_t num_nodes() const { return num_nodes_; }
  uint64_t window_length() const { return window_length_; }
  uint64_t start_time() const { return start_time_; }

 private:
  size_t num_nodes_;
  uint64_t window_length_;
  uint64_t start_time_;
  NodeId bipartite_left_size_;
};

}  // namespace commsig

#endif  // COMMSIG_GRAPH_WINDOWER_H_

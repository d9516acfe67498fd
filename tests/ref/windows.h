#ifndef COMMSIG_TESTS_REF_WINDOWS_H_
#define COMMSIG_TESTS_REF_WINDOWS_H_

// Reference windowing: the test oracle for TraceWindower (graph/windower.h)
// and the GraphBuilder it fills. It reads the windower's contract
// literally, one window at a time: a time filter over the whole event list
// in arrival order, a std::map per window that sums each (src, dst) from
// 0.0, and tallies taken in (src, dst) order. No table, no counting sort,
// no shared pass over the events.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/comm_graph.h"
#include "graph/windower.h"

namespace commsig::ref {

/// One window graph as the plain arrays CommGraph exposes: CSR offsets,
/// neighbour ids and edge weights of the out- and in-adjacency (each row
/// ascending by neighbour), and the per-node and total weight tallies.
struct WindowArrays {
  std::vector<size_t> out_index;  // size num_nodes + 1
  std::vector<NodeId> out_ids;
  std::vector<double> out_weights;
  std::vector<size_t> in_index;
  std::vector<NodeId> in_ids;
  std::vector<double> in_weights;
  std::vector<double> out_weight;  // size num_nodes
  std::vector<double> in_weight;
  double total_weight = 0.0;
};

struct SplitResult {
  std::vector<WindowArrays> windows;
  /// What the library adds to `robust/windower_dropped_events`.
  uint64_t dropped = 0;
};

/// TraceWindower(num_nodes, length, start).SplitSliding(events, stride),
/// with length and stride clamped to >= 1 as the windower does:
///  - windows run from 0 through the last one that starts at or before
///    some event's time (events before `start` reach none);
///  - window w keeps, in arrival order, each valid event (ids < num_nodes,
///    finite weight > 0) with start + w·stride <= t < start + w·stride +
///    length;
///  - an event counts as dropped when it is invalid and some window's
///    interval holds its time, or when its offset from start is 2^64 − 1
///    at stride 1, whose window count would not fit a size_t.
SplitResult SplitSliding(const std::vector<TraceEvent>& events,
                         size_t num_nodes, uint64_t length, uint64_t start,
                         uint64_t stride);

}  // namespace commsig::ref

#endif  // COMMSIG_TESTS_REF_WINDOWS_H_

#include "ref/windows.h"

#include <algorithm>
#include <map>
#include <utility>

#include "graph/graph_builder.h"

namespace commsig::ref {

namespace {

bool Valid(const TraceEvent& e, size_t num_nodes) {
  return e.src < num_nodes && e.dst < num_nodes && e.weight > 0.0 &&
         e.weight <= kMaxRecordWeight;
}

WindowArrays Arrays(const std::map<std::pair<NodeId, NodeId>, double>& sums,
                    size_t num_nodes) {
  WindowArrays a;
  a.out_index.assign(num_nodes + 1, 0);
  a.in_index.assign(num_nodes + 1, 0);
  a.out_weight.assign(num_nodes, 0.0);
  a.in_weight.assign(num_nodes, 0.0);
  std::vector<std::vector<std::pair<NodeId, double>>> in_rows(num_nodes);
  for (const auto& [pair, w] : sums) {
    const auto [src, dst] = pair;
    a.out_ids.push_back(dst);
    a.out_weights.push_back(w);
    ++a.out_index[src + size_t{1}];
    in_rows[dst].push_back({src, w});
    a.out_weight[src] += w;
    a.in_weight[dst] += w;
    a.total_weight += w;
  }
  for (size_t v = 0; v < num_nodes; ++v) {
    a.out_index[v + 1] += a.out_index[v];
    a.in_index[v + 1] = a.in_index[v] + in_rows[v].size();
    for (const auto& [src, w] : in_rows[v]) {
      a.in_ids.push_back(src);
      a.in_weights.push_back(w);
    }
  }
  return a;
}

}  // namespace

SplitResult SplitSliding(const std::vector<TraceEvent>& events,
                         size_t num_nodes, uint64_t length, uint64_t start,
                         uint64_t stride) {
  length = std::max<uint64_t>(length, 1);
  stride = std::max<uint64_t>(stride, 1);
  constexpr uint64_t kLastOffset = ~uint64_t{0};
  auto unrepresentable = [&](uint64_t d) {
    return stride == 1 && d == kLastOffset;
  };
  // Offsets from start, so start + w·stride + length never overflows.
  auto in_window = [&](uint64_t d, size_t w) {
    return w * stride <= d && d - w * stride < length;
  };

  size_t num_windows = 0;
  for (const TraceEvent& e : events) {
    if (e.time < start || unrepresentable(e.time - start)) continue;
    num_windows = std::max<size_t>(num_windows, (e.time - start) / stride + 1);
  }

  SplitResult result;
  for (const TraceEvent& e : events) {
    if (e.time < start) continue;
    const uint64_t d = e.time - start;
    if (unrepresentable(d)) {
      ++result.dropped;
      continue;
    }
    bool covered = false;
    for (size_t w = 0; w < num_windows; ++w) covered |= in_window(d, w);
    if (covered && !Valid(e, num_nodes)) ++result.dropped;
  }

  for (size_t w = 0; w < num_windows; ++w) {
    std::map<std::pair<NodeId, NodeId>, double> sums;
    for (const TraceEvent& e : events) {
      if (e.time < start || !Valid(e, num_nodes)) continue;
      const uint64_t d = e.time - start;
      if (unrepresentable(d) || !in_window(d, w)) continue;
      sums.try_emplace({e.src, e.dst}, 0.0).first->second += e.weight;
    }
    result.windows.push_back(Arrays(sums, num_nodes));
  }
  return result;
}

}  // namespace commsig::ref

#include "graph/graph_delta.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

namespace commsig {

namespace {

/// An entry's exact identity: its neighbour id and weight bits.
std::pair<NodeId, uint64_t> Key(const Edge& e) {
  return {e.node, std::bit_cast<uint64_t>(e.weight)};
}

}  // namespace

GraphDelta::GraphDelta(const CommGraph& old_g, const CommGraph& new_g)
    : old_(&old_g) {
  const size_t n = new_g.NumNodes();
  COMMSIG_CHECK(old_g.NumNodes() == n,
                "GraphDelta requires a shared node universe");
  out_changed_.assign(n, 0);
  in_changed_.assign(n, 0);
  local_dirty_.assign(n, 0);

  // Equal out-rows have bit-equal OutWeight, which Build sums in row order
  // (DESIGN.md §16a), so a different OutWeight or degree decides at once.
  // v's in-row changed exactly when some changed out-row gained, lost or
  // reweighted v, so no in-row is walked.
  std::vector<NodeId> degree_changed;
  for (NodeId u = 0; u < n; ++u) {
    if (old_g.InDegree(u) != new_g.InDegree(u)) degree_changed.push_back(u);
    const std::span<const Edge> a = old_g.OutEdges(u);
    const std::span<const Edge> b = new_g.OutEdges(u);
    if (std::bit_cast<uint64_t>(old_g.OutWeight(u)) ==
            std::bit_cast<uint64_t>(new_g.OutWeight(u)) &&
        std::ranges::equal(a, b, {}, Key, Key)) {
      continue;
    }
    out_changed_[u] = 1;
    local_dirty_[u] = 1;
    // Merge walk: flag each neighbour the row gained, lost or reweighted.
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i].node < b[j].node)) {
        in_changed_[a[i++].node] = 1;
      } else if (i == a.size() || b[j].node < a[i].node) {
        in_changed_[b[j++].node] = 1;
      } else {
        if (Key(a[i]) != Key(b[j])) in_changed_[a[i].node] = 1;
        ++i;
        ++j;
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (out_changed_[v] || in_changed_[v]) changed_row_nodes_.push_back(v);
  }

  // Local dirtiness beyond a changed out-row: v also goes dirty when some
  // out-neighbour's |I(u)| moved. Walking the *in*-rows of the few
  // degree-changed endpoints reaches exactly those v — a node with a clean
  // out-row has the same neighbour set in both graphs, so the new in-rows
  // cover it — and costs O(sum indeg(changed)) instead of an O(E) sweep;
  // a steady window with stable in-degrees pays nothing at all.
  // (Old-graph in-rows are not needed: a node holding the edge only in the
  // old graph has a changed out-row and is dirty already.)
  for (NodeId d : degree_changed) {
    for (const Edge& e : new_g.InEdges(d)) local_dirty_[e.node] = 1;
  }
}

}  // namespace commsig

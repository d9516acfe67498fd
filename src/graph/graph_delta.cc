#include "graph/graph_delta.h"

#include "common/check.h"

namespace commsig {

GraphDelta::GraphDelta(const CommGraph& old_g, const CommGraph& new_g)
    : old_(&old_g) {
  const size_t n = new_g.NumNodes();
  COMMSIG_CHECK(old_g.NumNodes() == n,
                "GraphDelta requires a shared node universe");
  out_changed_.assign(n, 0);
  in_changed_.assign(n, 0);
  local_dirty_.assign(n, 0);

  // Rows are compared by their Build-time digests — O(1) per node instead
  // of O(row) — so a sliding-window diff costs O(V) plus work proportional
  // to what actually changed. Two different rows collide with probability
  // 2^-64; SeededPropertyTest.GraphDeltaMatchesFullRowComparison checks
  // every flag against full-row equality on random window pairs.
  std::vector<NodeId> degree_changed;
  for (NodeId v = 0; v < n; ++v) {
    if (old_g.OutRowDigest(v) != new_g.OutRowDigest(v)) {
      out_changed_[v] = 1;
      local_dirty_[v] = 1;
    }
    if (old_g.InRowDigest(v) != new_g.InRowDigest(v)) in_changed_[v] = 1;
    if (old_g.InDegree(v) != new_g.InDegree(v)) degree_changed.push_back(v);
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

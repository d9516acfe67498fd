#include "graph/comm_graph.h"

#include <algorithm>

namespace commsig {

double CommGraph::EdgeWeight(NodeId v, NodeId u) const {
  auto edges = OutEdges(v);
  auto it = std::lower_bound(
      edges.begin(), edges.end(), u,
      [](const Edge& e, NodeId id) { return e.node < id; });
  if (it != edges.end() && it->node == u) return it->weight;
  return 0.0;
}

std::vector<CommGraph::FlatEdge> CommGraph::Edges() const {
  std::vector<FlatEdge> flat;
  flat.reserve(out_edges_.size());
  for (NodeId v = 0; v < NumNodes(); ++v) {
    for (const Edge& e : OutEdges(v)) {
      flat.push_back({v, e.node, e.weight});
    }
  }
  return flat;
}

}  // namespace commsig

#ifndef COMMSIG_GRAPH_COMM_GRAPH_H_
#define COMMSIG_GRAPH_COMM_GRAPH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/interner.h"

namespace commsig {

/// One adjacency entry: a neighbour and the aggregated communication volume
/// on the connecting edge (e.g. number of TCP sessions, call count).
struct Edge {
  NodeId node = kInvalidNode;
  double weight = 0.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// A weighted directed communication graph aggregated over one time window
/// (the paper's `G_t = <V, E_t>` with weights `C[v,u]`).
///
/// The node universe [0, num_nodes) is fixed at construction and typically
/// shared across all windows of a data set via a common Interner. Storage is
/// CSR-like: per-node sorted out- and in-adjacency arrays, so neighbour scans
/// are cache-friendly and `EdgeWeight` is a binary search.
///
/// Immutable after construction; build instances with GraphBuilder.
class CommGraph {
 public:
  /// Metadata for bipartite data sets (e.g. client/server, user/table).
  /// Nodes with id < left_size belong to V1, the rest to V2. A value of 0
  /// means the graph is not flagged bipartite.
  struct Bipartite {
    NodeId left_size = 0;
    bool IsBipartite() const { return left_size > 0; }
  };

  CommGraph() = default;

  CommGraph(const CommGraph&) = default;
  CommGraph& operator=(const CommGraph&) = default;
  CommGraph(CommGraph&&) = default;
  CommGraph& operator=(CommGraph&&) = default;

  /// Number of nodes in the (window-independent) universe.
  size_t NumNodes() const { return out_index_.empty() ? 0 : out_index_.size() - 1; }

  /// Number of distinct directed edges with non-zero weight.
  size_t NumEdges() const { return out_edges_.size(); }

  /// Sum of all edge weights (total communication volume).
  double TotalWeight() const { return total_weight_; }

  /// Out-neighbours of `v`, sorted by node id.
  std::span<const Edge> OutEdges(NodeId v) const {
    return {out_edges_.data() + out_index_[v],
            out_index_[v + 1] - out_index_[v]};
  }

  /// In-neighbours of `v`, sorted by node id.
  std::span<const Edge> InEdges(NodeId v) const {
    return {in_edges_.data() + in_index_[v], in_index_[v + 1] - in_index_[v]};
  }

  /// |O(v)| and |I(v)| — distinct out-/in-neighbour counts.
  size_t OutDegree(NodeId v) const {
    return out_index_[v + 1] - out_index_[v];
  }
  size_t InDegree(NodeId v) const { return in_index_[v + 1] - in_index_[v]; }

  /// Total outgoing volume from `v` (the TT normalizer).
  double OutWeight(NodeId v) const { return out_weight_[v]; }

  /// Total incoming volume into `v`.
  double InWeight(NodeId v) const { return in_weight_[v]; }

  /// C[v,u]: weight of edge (v,u), or 0 if absent. O(log outdeg(v)).
  double EdgeWeight(NodeId v, NodeId u) const;

  /// True iff edge (v,u) is present with non-zero weight.
  bool HasEdge(NodeId v, NodeId u) const { return EdgeWeight(v, u) > 0.0; }

  const Bipartite& bipartite() const { return bipartite_; }

  /// For bipartite graphs: true iff `v` is in the left partition V1.
  bool InLeftPartition(NodeId v) const { return v < bipartite_.left_size; }

  /// Flat list of all edges as (src, dst, weight) triples, grouped by src in
  /// id order. Convenient for perturbation and serialization.
  struct FlatEdge {
    NodeId src;
    NodeId dst;
    double weight;
  };
  std::vector<FlatEdge> Edges() const;

 private:
  friend class GraphBuilder;

  std::vector<size_t> out_index_;  // size NumNodes()+1
  std::vector<Edge> out_edges_;    // sorted by dst within each src range
  std::vector<size_t> in_index_;
  std::vector<Edge> in_edges_;
  std::vector<double> out_weight_;
  std::vector<double> in_weight_;
  double total_weight_ = 0.0;
  Bipartite bipartite_;
};

}  // namespace commsig

#endif  // COMMSIG_GRAPH_COMM_GRAPH_H_

#ifndef COMMSIG_GRAPH_GRAPH_BUILDER_H_
#define COMMSIG_GRAPH_GRAPH_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/comm_graph.h"

namespace commsig {

/// Largest weight one observation — a trace record, a TryAddEdge call — may
/// carry: 2^64, above every 32-bit NetFlow count. A window sums far fewer
/// than 2^960 observations, so no edge weight or node tally built from
/// accepted ones can overflow to infinity (DBL_MAX is about 2^1024).
inline constexpr double kMaxRecordWeight = 0x1p64;

/// Accumulates directed weighted edge observations and finalizes them into
/// an immutable CommGraph.
///
/// Repeated AddEdge calls on the same (src, dst) pair aggregate their
/// weights — this is the paper's flow aggregation step where individual
/// communications within a window are summed into edge volumes C[v,u].
///
/// Each observation is summed as it arrives into an open-addressed table
/// keyed by (src, dst): an edge's first observation stores 0.0 + w and
/// each later one adds += w, so every edge weight is the sum of its
/// observations in arrival order, and memory follows the distinct edges,
/// not the observations. Build() places the distinct edges into the CSR
/// arrays by counting sort, in O(E + n) (DESIGN.md §16a).
class GraphBuilder {
 public:
  /// `num_nodes` fixes the node universe; all ids must be < num_nodes.
  explicit GraphBuilder(size_t num_nodes);

  /// Adds `weight` (> 0) to edge (src, dst). Self-loops are permitted at
  /// this layer; signature schemes ignore the focal node per Definition 1.
  /// Ids and weight must already be validated — this is the trusted-caller
  /// fast path (asserts in Debug only).
  void AddEdge(NodeId src, NodeId dst, double weight = 1.0);

  /// Validating variant for the ingest path: returns false (and adds
  /// nothing) if an id is >= num_nodes or the weight is NaN, <= 0 or above
  /// kMaxRecordWeight.
  /// Use this when the edge comes from untrusted input that may have been
  /// corrupted downstream of the readers (e.g. fault injection, stale
  /// checkpoints).
  bool TryAddEdge(NodeId src, NodeId dst, double weight = 1.0);

  /// Marks the first `left_size` node ids as partition V1 of a bipartite
  /// graph (see CommGraph::Bipartite).
  void SetBipartiteLeftSize(NodeId left_size) { left_size_ = left_size; }

  size_t num_nodes() const { return num_nodes_; }

  /// Finalizes into a CommGraph. The builder is consumed.
  CommGraph Build() &&;

 private:
  /// One table entry: `key` is src << 32 | dst, and `weight` the edge's
  /// running sum. kEmptyKey (src = dst = kInvalidNode, never a valid id
  /// pair) marks a free slot.
  struct Slot {
    uint64_t key;
    double weight;
  };
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  /// First probe position of `key` in the table.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Doubles the table and reinserts every edge.
  void Grow();

  size_t num_nodes_;
  NodeId left_size_ = 0;
  size_t num_edges_ = 0;
  /// Open-addressed edge table: power-of-two size, linear probing,
  /// multiplicative hash of the key, at most three-quarters full.
  std::vector<Slot> slots_;
  int shift_ = 64;  // 64 − log2(slots_.size())
};

}  // namespace commsig

#endif  // COMMSIG_GRAPH_GRAPH_BUILDER_H_

#ifndef COMMSIG_GRAPH_GRAPH_DELTA_H_
#define COMMSIG_GRAPH_GRAPH_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/comm_graph.h"

namespace commsig {

/// Exact structural diff between two consecutive window graphs over one
/// node universe (the paper's G_t -> G_{t+1}): O(V) plus one walk of each
/// out-row that changed or ties on degree and weight sum. The incremental
/// engine uses it to decide which focal signatures can be carried over:
///
///  - OutChanged(v): v's out-adjacency (neighbour set or any edge weight)
///    differs. The exact dirtiness condition for Top Talkers, whose
///    signature reads nothing but v's out-row.
///  - InChanged(v): v's in-adjacency differs (set or weights). Together
///    with OutChanged this flags every node whose symmetric-traversal
///    transition row moved, which is what the RWR warm-start drift bound
///    integrates over.
///  - LocalDirty(v): OutChanged(v), or some out-neighbour of v changed
///    in-degree. The dirtiness condition for Unexpected Talkers (weights
///    C[v,u] / |I(u)|) and the safe default for any scheme whose signature
///    depends only on the focal out-row and its endpoints' in-degrees.
///
/// The old graph must outlive the delta, which keeps a pointer to it.
class GraphDelta {
 public:
  /// Requires old_g.NumNodes() == new_g.NumNodes() (windows share one
  /// universe by construction; violating this aborts).
  GraphDelta(const CommGraph& old_g, const CommGraph& new_g);

  const CommGraph& old_graph() const { return *old_; }

  bool OutChanged(NodeId v) const { return out_changed_[v] != 0; }
  bool InChanged(NodeId v) const { return in_changed_[v] != 0; }
  bool LocalDirty(NodeId v) const { return local_dirty_[v] != 0; }

  /// True iff v's transition row under the given traversal moved: the
  /// out-row changed, or (symmetric traversal) the in-row changed.
  bool RowChanged(NodeId v, bool symmetric) const {
    return OutChanged(v) || (symmetric && InChanged(v));
  }

  /// Nodes with OutChanged or InChanged, ascending — the union the RWR
  /// drift pass iterates. Empty means the windows aggregate to identical
  /// graphs (full signature reuse).
  std::span<const NodeId> changed_row_nodes() const {
    return changed_row_nodes_;
  }

 private:
  const CommGraph* old_;
  std::vector<uint8_t> out_changed_;
  std::vector<uint8_t> in_changed_;
  std::vector<uint8_t> local_dirty_;
  std::vector<NodeId> changed_row_nodes_;
};

}  // namespace commsig

#endif  // COMMSIG_GRAPH_GRAPH_DELTA_H_

#ifndef COMMSIG_TESTS_REF_TALKERS_H_
#define COMMSIG_TESTS_REF_TALKERS_H_

// Reference model of Definition 1 for the volume-based schemes: the test
// oracle of TopTalkersScheme (core/top_talkers.h) and
// UnexpectedTalkersScheme (core/unexpected_talkers.h). It reads a window
// into a dense n × n volume matrix C and takes each weight straight from
// the paper's formula over whole rows and columns of C: no CSR rows, no
// cached tallies or degrees, no streaming top-k selector.

#include <cstddef>
#include <vector>

#include "core/signature.h"
#include "graph/comm_graph.h"

namespace commsig::ref {

/// The relevance w_ij of a candidate j to focal node i.
enum class Talkers {
  kTopTalkers,        // Definition 3: C[i,j] / Σ_v C[i,v]
  kUnexpected,        // Definition 4: C[i,j] / |I(j)|
  kUnexpectedTfIdf,   // Section III: C[i,j] · log(|V| / |I(j)|)
};

/// A window graph as a dense matrix: C[i,j] is the volume of edge (i, j),
/// 0 where there is none.
class DenseVolumes {
 public:
  explicit DenseVolumes(const CommGraph& g);

  size_t size() const { return n_; }
  double at(NodeId i, NodeId j) const { return c_[size_t{i} * n_ + j]; }

  /// Σ_v C[i,v], summed from 0.0 in ascending v, the order GraphBuilder
  /// takes its tallies in (DESIGN.md §16a).
  double RowSum(NodeId i) const;

  /// |I(j)|: the nodes v with C[v,j] > 0.
  size_t InDegree(NodeId j) const;

 private:
  size_t n_ = 0;
  std::vector<double> c_;  // row-major, n × n
};

/// σ(focal) by Definition 1: every j ≠ focal (on the other side of
/// `bipartite` when `opposite_only` is set and the graph is flagged
/// bipartite) with a positive weight w_focal,j, ranked by (weight desc,
/// id asc), the first k kept, returned ascending by id.
std::vector<Signature::Entry> TalkerSignature(const DenseVolumes& c,
                                              CommGraph::Bipartite bipartite,
                                              NodeId focal, Talkers scheme,
                                              size_t k, bool opposite_only);

}  // namespace commsig::ref

#endif  // COMMSIG_TESTS_REF_TALKERS_H_

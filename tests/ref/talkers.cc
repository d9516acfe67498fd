#include "ref/talkers.h"

#include <algorithm>
#include <cmath>

namespace commsig::ref {

DenseVolumes::DenseVolumes(const CommGraph& g)
    : n_(g.NumNodes()), c_(g.NumNodes() * g.NumNodes(), 0.0) {
  for (const CommGraph::FlatEdge& e : g.Edges()) {
    c_[size_t{e.src} * n_ + e.dst] = e.weight;
  }
}

double DenseVolumes::RowSum(NodeId i) const {
  double sum = 0.0;
  for (NodeId v = 0; v < n_; ++v) sum += at(i, v);
  return sum;
}

size_t DenseVolumes::InDegree(NodeId j) const {
  size_t count = 0;
  for (NodeId v = 0; v < n_; ++v) count += at(v, j) > 0.0 ? 1 : 0;
  return count;
}

std::vector<Signature::Entry> TalkerSignature(const DenseVolumes& c,
                                              CommGraph::Bipartite bipartite,
                                              NodeId focal, Talkers scheme,
                                              size_t k, bool opposite_only) {
  const double n = static_cast<double>(c.size());
  std::vector<Signature::Entry> ranked;
  for (NodeId j = 0; j < c.size(); ++j) {
    if (j == focal) continue;
    if (opposite_only && bipartite.IsBipartite() &&
        (focal < bipartite.left_size) == (j < bipartite.left_size)) {
      continue;
    }
    const double volume = c.at(focal, j);
    if (volume <= 0.0) continue;
    const double in_degree = static_cast<double>(c.InDegree(j));
    double w = 0.0;
    switch (scheme) {
      case Talkers::kTopTalkers:
        w = volume / c.RowSum(focal);
        break;
      case Talkers::kUnexpected:
        w = volume / in_degree;
        break;
      case Talkers::kUnexpectedTfIdf:
        w = volume * std::log(n / in_degree);
        break;
    }
    if (w > 0.0) ranked.push_back({j, w});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Signature::Entry& a, const Signature::Entry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.node < b.node;
            });
  if (ranked.size() > k) ranked.resize(k);
  std::sort(ranked.begin(), ranked.end(),
            [](const Signature::Entry& a, const Signature::Entry& b) {
              return a.node < b.node;
            });
  return ranked;
}

}  // namespace commsig::ref

#include "apps/deanonymizer.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/assignment.h"
#include "common/random.h"
#include "core/signature_index.h"
#include "graph/graph_builder.h"

namespace commsig {

NodeId AnonymizationPlan::OriginalOf(NodeId pseudonym) const {
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pseudonym_of[i] == pseudonym) return pool[i];
  }
  return kInvalidNode;
}

AnonymizationPlan PlanAnonymization(std::span<const NodeId> pool,
                                    uint64_t seed) {
  AnonymizationPlan plan;
  plan.pool.assign(pool.begin(), pool.end());
  plan.pseudonym_of = plan.pool;
  Rng rng(seed);
  rng.Shuffle(plan.pseudonym_of);
  return plan;
}

CommGraph Anonymize(const CommGraph& g, const AnonymizationPlan& plan) {
  std::vector<NodeId> relabel(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) relabel[v] = v;
  for (size_t i = 0; i < plan.pool.size(); ++i) {
    relabel[plan.pool[i]] = plan.pseudonym_of[i];
  }
  GraphBuilder builder(g.NumNodes());
  builder.SetBipartiteLeftSize(g.bipartite().left_size);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const Edge& e : g.OutEdges(v)) {
      builder.AddEdge(relabel[v], relabel[e.node], e.weight);
    }
  }
  return std::move(builder).Build();
}

std::vector<Identification> Deanonymizer::Identify(
    std::span<const NodeId> originals, std::span<const Signature> reference,
    std::span<const NodeId> pseudonyms,
    std::span<const Signature> anonymous) const {
  assert(originals.size() == reference.size());
  assert(pseudonyms.size() == anonymous.size());
  const size_t n = originals.size();
  const size_t m = pseudonyms.size();
  std::vector<Identification> out;
  if (n == 0 || m == 0) return out;

  // Best and runner-up candidate per reference node.
  struct Candidate {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    double second_dist = std::numeric_limits<double>::infinity();
  };
  std::vector<Candidate> candidates(n);
  // Full distance matrix, kept for the one-to-one pass. The kernel runs
  // only on pairs that share a member; every other entry is exactly 1.0.
  std::vector<double> matrix(n * m);
  const SignatureIndex index(anonymous);
  for (size_t i = 0; i < n; ++i) {
    index.DistanceRow(reference[i], dist_, 0,
                      std::span(matrix).subspan(i * m, m));
    Candidate& c = candidates[i];
    for (size_t j = 0; j < m; ++j) {
      const double d = matrix[i * m + j];
      if (d < c.best_dist) {
        c.second_dist = c.best_dist;
        c.best_dist = d;
        c.best = j;
      } else if (d < c.second_dist) {
        c.second_dist = d;
      }
    }
  }

  if (!options_.one_to_one) {
    for (size_t i = 0; i < n; ++i) {
      const Candidate& c = candidates[i];
      if (c.best_dist > options_.max_distance) continue;
      double margin = (m > 1) ? c.second_dist - c.best_dist : 1.0;
      out.push_back({originals[i], pseudonyms[c.best], c.best_dist, margin});
    }
    std::sort(out.begin(), out.end(),
              [](const Identification& a, const Identification& b) {
                return a.margin > b.margin;
              });
    return out;
  }

  if (options_.assignment == AssignmentMode::kOptimal && n <= m) {
    // Hungarian optimum over the full distance matrix.
    auto assignment = SolveAssignment(matrix, n, m);
    for (size_t i = 0; i < n; ++i) {
      const size_t j = assignment[i];
      const double d = matrix[i * m + j];
      if (d > options_.max_distance) continue;
      // Margin relative to the row's runner-up (for ranking only).
      double margin =
          (m > 1) ? candidates[i].second_dist - d : 1.0;
      out.push_back({originals[i], pseudonyms[j], d, margin});
    }
    std::sort(out.begin(), out.end(),
              [](const Identification& a, const Identification& b) {
                return a.margin > b.margin;
              });
    return out;
  }

  // Greedy one-to-one assignment in order of confidence margin: nodes with
  // an unambiguous nearest pseudonym claim it first; later nodes re-rank
  // over the pseudonyms still available.
  std::vector<bool> reference_done(n, false), pseudonym_taken(m, false);
  size_t assigned = 0;
  const size_t max_assignments = std::min(n, m);
  while (assigned < max_assignments) {
    // Pick the unassigned reference node with the largest current margin.
    double best_margin = -1.0;
    size_t pick = n;
    for (size_t i = 0; i < n; ++i) {
      if (reference_done[i]) continue;
      const Candidate& c = candidates[i];
      double margin = c.second_dist - c.best_dist;
      if (margin > best_margin) {
        best_margin = margin;
        pick = i;
      }
    }
    if (pick == n) break;
    const Candidate& c = candidates[pick];
    reference_done[pick] = true;
    if (c.best_dist <= options_.max_distance &&
        c.best_dist != std::numeric_limits<double>::infinity()) {
      pseudonym_taken[c.best] = true;
      out.push_back({originals[pick], pseudonyms[c.best], c.best_dist,
                     best_margin});
      ++assigned;
    }
    // Refresh candidates that pointed at a now-taken pseudonym.
    for (size_t i = 0; i < n; ++i) {
      if (reference_done[i]) continue;
      Candidate& ci = candidates[i];
      if (!pseudonym_taken[ci.best]) continue;
      ci.best_dist = std::numeric_limits<double>::infinity();
      ci.second_dist = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < m; ++j) {
        if (pseudonym_taken[j]) continue;
        double d = matrix[i * m + j];
        if (d < ci.best_dist) {
          ci.second_dist = ci.best_dist;
          ci.best_dist = d;
          ci.best = j;
        } else if (d < ci.second_dist) {
          ci.second_dist = d;
        }
      }
      if (ci.best_dist == std::numeric_limits<double>::infinity()) {
        reference_done[i] = true;  // nothing left to claim
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Identification& a, const Identification& b) {
              return a.margin > b.margin;
            });
  return out;
}

double DeanonymizationAccuracy(std::span<const Identification> ids,
                               const AnonymizationPlan& plan) {
  if (plan.pool.empty()) return 0.0;
  size_t correct = 0;
  for (const Identification& id : ids) {
    for (size_t i = 0; i < plan.pool.size(); ++i) {
      if (plan.pool[i] == id.original &&
          plan.pseudonym_of[i] == id.pseudonym) {
        ++correct;
        break;
      }
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(plan.pool.size());
}

}  // namespace commsig

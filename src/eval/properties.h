#ifndef COMMSIG_EVAL_PROPERTIES_H_
#define COMMSIG_EVAL_PROPERTIES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "core/distance.h"
#include "core/scheme.h"
#include "eval/roc.h"
#include "graph/comm_graph.h"

namespace commsig {

/// Per-node persistence values 1 - Dist(σ_t(v), σ_{t+1}(v)) for the focal
/// nodes, given their signatures in two consecutive windows (index-aligned
/// vectors).
std::vector<double> PersistenceValues(std::span<const Signature> sigs_t,
                                      std::span<const Signature> sigs_t1,
                                      SignatureDistance dist);

/// Pairwise uniqueness values Dist(σ_t(v), σ_t(u)) over unordered focal
/// pairs v != u within one window, in (v, u) order with v < u. If
/// `max_pairs` > 0 and the number of pairs exceeds it, a uniform random
/// sample of that many pairs is used (deterministic under `seed`).
/// Otherwise the kernel runs only on pairs that share a member
/// (core/signature_index.h); every other value is exactly 1.0.
std::vector<double> UniquenessValues(std::span<const Signature> sigs,
                                     SignatureDistance dist,
                                     size_t max_pairs = 0, uint64_t seed = 1);

/// Mean/stddev of persistence (x) and uniqueness (y) — the paper's Figure 1
/// plots these as an ellipse centred at (mean_p, mean_u) with diameters
/// (std_p, std_u).
struct PropertyEllipse {
  double mean_persistence = 0.0;
  double std_persistence = 0.0;
  double mean_uniqueness = 0.0;
  double std_uniqueness = 0.0;
  size_t persistence_count = 0;
  size_t uniqueness_count = 0;
};

PropertyEllipse SummarizeProperties(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist,
                                    size_t max_pairs = 0, uint64_t seed = 1);

/// The paper's persistence/uniqueness trade-off statistic (Section IV-C):
/// for each focal node v, rank every candidate u by
/// Dist(σ_t(v), σ_{t+1}(u)) and score how well v itself ranks first. Returns
/// one RocResult per query node, using the self node as the single relevant
/// candidate.
std::vector<RocResult> SelfMatchRoc(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist);

/// Cross-graph matching ROC used for robustness (Section IV-C, Fig. 4):
/// each query signature from `queries` is ranked against all `candidates`
/// (index-aligned node sets); relevant = same index. This is identical in
/// mechanics to SelfMatchRoc but reads better at call sites that compare a
/// graph against its perturbed twin.
inline std::vector<RocResult> MatchRoc(std::span<const Signature> queries,
                                       std::span<const Signature> candidates,
                                       SignatureDistance dist) {
  return SelfMatchRoc(queries, candidates, dist);
}

/// Set-relevance matching ROC used for multiusage detection (Section V,
/// Fig. 5): for each query index q (a node known to belong to a multi-node
/// user), ranks all candidates and marks as relevant the candidate indices
/// in `relevant_sets[q]` (the other nodes of the same user, including q
/// itself excluded or not per the caller). Candidates at the query's own
/// index can be excluded by listing only the *other* set members and
/// passing `exclude_self` = true.
std::vector<RocResult> SetMatchRoc(
    std::span<const Signature> queries,
    std::span<const size_t> query_indices,
    std::span<const Signature> candidates,
    const std::vector<std::vector<size_t>>& relevant_sets,
    SignatureDistance dist, bool exclude_self = true);

}  // namespace commsig

#endif  // COMMSIG_EVAL_PROPERTIES_H_

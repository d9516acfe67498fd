#ifndef COMMSIG_TESTS_REF_ALL_PAIRS_H_
#define COMMSIG_TESTS_REF_ALL_PAIRS_H_

// Brute-force all-pairs sweeps: the test oracles of core/signature_index.h
// and of its callers. Each calls the distance kernel on every pair, the way
// MultiusageDetector, UniquenessValues' all-pairs branch,
// MasqueradeDetector's cross-persistence ranking, the ROC functions and
// the deanonymizer's cost matrix did before the index; the production
// versions must match them bit for bit.

#include <span>
#include <vector>

#include "apps/masquerade_detector.h"
#include "apps/multiusage.h"
#include "core/distance.h"
#include "core/signature.h"
#include "core/signature_index.h"
#include "eval/roc.h"

namespace commsig::ref {

/// Every pair i < j with dist(sigs[i], sigs[j]) <= t, in (i, j) order.
std::vector<SignatureIndex::Pair> ThresholdJoin(
    std::span<const Signature> sigs, SignatureDistance dist, double t);

/// dist(probe, sigs[u]) for u in [first, sigs.size()).
std::vector<double> DistanceRow(const Signature& probe,
                                std::span<const Signature> sigs,
                                SignatureDistance dist, size_t first = 0);

/// MultiusageDetector::Detect over all n(n−1)/2 pairs.
std::vector<MultiusagePair> MultiusagePairs(
    std::span<const NodeId> nodes, std::span<const Signature> sigs,
    SignatureDistance dist, MultiusageDetector::Options options);

/// UniquenessValues' all-pairs branch: every (v, u), v < u, in order.
std::vector<double> UniquenessAllPairs(std::span<const Signature> sigs,
                                       SignatureDistance dist);

/// MasqueradeDetector::Detect ranking every u for every suspect.
MasqueradeDetection MasqueradeDetect(std::span<const NodeId> nodes,
                                     std::span<const Signature> sigs_t,
                                     std::span<const Signature> sigs_t1,
                                     SignatureDistance dist,
                                     MasqueradeDetector::Options options);

/// SelfMatchRoc scoring every (v, u).
std::vector<RocResult> SelfMatchRoc(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist);

/// SetMatchRoc scoring every (q, u).
std::vector<RocResult> SetMatchRoc(
    std::span<const Signature> queries,
    std::span<const size_t> query_indices,
    std::span<const Signature> candidates,
    const std::vector<std::vector<size_t>>& relevant_sets,
    SignatureDistance dist, bool exclude_self);

}  // namespace commsig::ref

#endif  // COMMSIG_TESTS_REF_ALL_PAIRS_H_

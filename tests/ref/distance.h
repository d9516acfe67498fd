#ifndef COMMSIG_TESTS_REF_DISTANCE_H_
#define COMMSIG_TESTS_REF_DISTANCE_H_

// Reference distance: the test oracle for the packed kernels of
// core/distance.h. The pre-SIMD single-merge formulation of Section IV-B —
// one linear merge over the entry pairs accumulating every statistic any
// kind needs — with no cached per-signature sums, no intersection tiers and
// no lane-wise accumulation.

#include "core/distance.h"
#include "core/signature.h"

namespace commsig::ref {

/// Dist_kind(a, b) by one merge over the union of the two entry lists.
/// Same edge cases as commsig::Distance (two empty signatures at 0, empty
/// vs non-empty at 1) and the same `distance/evaluations` counter bump.
/// Values may differ from Distance() in the last few ulps (the packed
/// kernels hoist per-signature sums to construction and accumulate matches
/// 4 lanes at a time), never more. Also the in-run baseline the
/// BM_PairwiseDistances speedup gauges divide by.
double Distance(DistanceKind kind, const Signature& a, const Signature& b);

}  // namespace commsig::ref

#endif  // COMMSIG_TESTS_REF_DISTANCE_H_

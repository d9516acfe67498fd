#ifndef COMMSIG_TESTS_REF_RWR_H_
#define COMMSIG_TESTS_REF_RWR_H_

// Reference RWR: the test oracles for RwrBatchEngine (core/rwr_batch.h).
//
// RwrSolve is the serial iteration of Definition 5, r^t = (1-c)·Pᵀ r^{t-1}
// + c·s_v, one source at a time over a dense n-vector: no column block, no
// frontier, no convergence masking and no vector kernels. Unbounded
// symmetric walks with c > 0 run the engine's Chebyshev recurrence. It
// scales a row's mass by the same two-multiply expression the engine uses,
// so the two agree bit for bit — for truncated RWR^h walks and for
// unbounded ones.
//
// RwrDirectSolve is the fixed point itself, by dense elimination, which
// checks both iterations against the published epsilon.

#include <vector>

#include "core/rwr.h"
#include "core/rwr_batch.h"
#include "core/scheme.h"
#include "core/signature.h"
#include "graph/comm_graph.h"

namespace commsig::ref {

/// Power iteration for source `v` from the initial distribution `r`
/// (consumed; index = node id). `cache` must have been built from `g` with
/// `opts.traversal`. Bumps `rwr/calls`, `rwr/iterations` and, for
/// unbounded walks, `rwr/residual_at_convergence` like the engine does.
RwrScheme::RwrSolve RwrSolve(const RwrOptions& opts, const CommGraph& g,
                             NodeId v, const TransitionCache& cache,
                             std::vector<double> r);

/// Cold solve: a fresh TransitionCache and unit mass at `v`.
RwrScheme::RwrSolve RwrSolve(const RwrOptions& opts, const CommGraph& g,
                             NodeId v);

/// The steady state of Definition 5 solved directly: dense Gaussian
/// elimination with partial pivoting of (I − (1−c)·P̃ᵀ) r = c·e_v, where P̃
/// is the transition matrix of `opts.traversal` with every dangling row
/// sent to `v`. Needs c > 0 (the matrix is singular at c = 0). O(n³), for
/// test-sized graphs; ignores max_hops, tolerance and max_iterations.
std::vector<double> RwrDirectSolve(const RwrOptions& opts, const CommGraph& g,
                                   NodeId v);

/// The per-source signature: a cold solve, the RWR -> RWR^h fallback when
/// an unbounded walk does not converge (counted under
/// `robust/rwr_fallbacks`), then the Definition-1 candidate filter and
/// Signature::FromTopK over the dense vector. Also the per-source baseline
/// BM_RwrAllNodes times the batched sweep against.
Signature RwrSignature(const SchemeOptions& options, const RwrOptions& opts,
                       const CommGraph& g, NodeId v);

}  // namespace commsig::ref

#endif  // COMMSIG_TESTS_REF_RWR_H_

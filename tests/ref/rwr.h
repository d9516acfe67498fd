#ifndef COMMSIG_TESTS_REF_RWR_H_
#define COMMSIG_TESTS_REF_RWR_H_

// Reference RWR: the test oracle for RwrBatchEngine (core/rwr_batch.h). The
// serial power iteration of Definition 5, r^t = (1-c)·Pᵀ r^{t-1} + c·s_v,
// one source at a time over a dense n-vector: no column block, no
// frontier, no convergence masking and no vector kernels. It scales a row's
// mass by the same two-multiply expression the engine uses, so the two
// agree bit for bit — for truncated RWR^h walks and for unbounded ones.

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

/// The per-source signature: a cold solve, the RWR -> RWR^h fallback when
/// an unbounded walk does not converge (counted under
/// `robust/rwr_fallbacks`), then the Definition-1 candidate filter and
/// Signature::FromTopK over the dense vector. Also the per-source baseline
/// BM_RwrAllNodes times the batched sweep against.
Signature RwrSignature(const SchemeOptions& options, const RwrOptions& opts,
                       const CommGraph& g, NodeId v);

}  // namespace commsig::ref

#endif  // COMMSIG_TESTS_REF_RWR_H_

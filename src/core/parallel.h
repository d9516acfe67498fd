#ifndef COMMSIG_CORE_PARALLEL_H_
#define COMMSIG_CORE_PARALLEL_H_

#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/scheme.h"

namespace commsig {

/// Parallel counterpart of SignatureScheme::ComputeAll: computes the
/// signatures of `nodes` across the pool's workers, handing each worker a
/// batch-width window of sources so batched schemes (RWR's block power
/// iteration) amortize their per-window setup and graph scans. Safe because
/// schemes are immutable and Compute/ComputeAll are const with no shared
/// mutable state — workers share nothing but disjoint slices of the output
/// vector and per-thread workspaces (RwrBatchEngine::LocalWorkspace), so
/// there is no lock for the thread-safety annotations to name here; the
/// tests/concurrency/ determinism suite pins the contract instead. Results
/// are index-aligned with `nodes`, identical to the serial path
/// (bit-identical for RWR^h) for any worker count.
std::vector<Signature> ComputeAllParallel(const SignatureScheme& scheme,
                                          const CommGraph& g,
                                          std::span<const NodeId> nodes,
                                          ThreadPool& pool);

}  // namespace commsig

#endif  // COMMSIG_CORE_PARALLEL_H_

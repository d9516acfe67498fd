#ifndef COMMSIG_CORE_PARALLEL_H_
#define COMMSIG_CORE_PARALLEL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/scheme.h"

namespace commsig {

/// Parallel counterpart of SignatureScheme::ComputeAll: computes the
/// signatures of `nodes` on up to `threads` workers, the calling thread
/// being worker 0. Workers claim batch-width chunks of sources
/// (RwrBatchEngine::kDefaultBatchWidth) from one atomic counter and run
/// scheme.ComputeAll on each, so batched schemes (RWR's block power
/// iteration) amortize their per-window setup and graph scans. No thread
/// starts at `threads` <= 1, and never more workers than chunks. Safe
/// because schemes are immutable and Compute/ComputeAll are const with no
/// shared mutable state: workers share nothing but disjoint slices of the
/// output vector and per-thread workspaces (RwrBatchEngine::LocalWorkspace),
/// so there is no lock for the thread-safety annotations to name here; the
/// tests/concurrency/ determinism suite pins the contract instead. Results
/// are index-aligned with `nodes` and bit-identical to the serial path for
/// any worker count.
std::vector<Signature> ComputeAllParallel(const SignatureScheme& scheme,
                                          const CommGraph& g,
                                          std::span<const NodeId> nodes,
                                          size_t threads);

}  // namespace commsig

#endif  // COMMSIG_CORE_PARALLEL_H_

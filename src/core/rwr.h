#ifndef COMMSIG_CORE_RWR_H_
#define COMMSIG_CORE_RWR_H_

#include <string>
#include <vector>

#include "core/scheme.h"

namespace commsig {

class TransitionCache;

/// Random Walk with Resets (paper Definition 5): the signature of `i` holds
/// the k nodes with the largest steady-state occupancy probability of a
/// random walk that follows edges with probability proportional to edge
/// weight and resets to `i` with probability c — i.e. personalized PageRank
/// rooted at `i`.
///
/// RWR^h truncates the power iteration at h steps, restricting influence to
/// the h-hop neighbourhood; `max_hops == 0` iterates to convergence (full
/// RWR). With c = 0 and h = 1 the scheme coincides exactly with Top Talkers.
///
/// The walk traverses edges symmetrically by default (see TraversalMode):
/// on one-way monitored traces, directed multi-hop walks die at sink nodes
/// after one step, while the symmetric walk recovers the paper's
/// local -> external -> local transitivity.
class RwrScheme final : public SignatureScheme {
 public:
  /// Outcome of one power iteration, including whether the unbounded walk
  /// actually met its tolerance. Callers that need trustworthy
  /// probabilities (anomaly scoring, drift bounds) must check `converged`
  /// rather than assume the cap was never hit.
  struct RwrSolve {
    std::vector<double> probabilities;  // sums to 1; index = node id
    bool converged = false;  // always true for truncated RWR^h walks
    double residual = 0.0;   // last L1 step change (unbounded walks only)
    size_t iterations = 0;
  };

  RwrScheme(SchemeOptions options, RwrOptions rwr_options)
      : SignatureScheme(options), rwr_(rwr_options) {}

  std::string name() const override;

  SchemeTraits traits() const override;

  /// Computes the signature as ComputeAll(g, {v})[0], a batch of one.
  Signature Compute(const CommGraph& g, NodeId v) const override;

  /// Windows `nodes` through the block power iteration of RwrBatchEngine
  /// (one graph scan amortized over a batch of sources, frontier-sparse
  /// truncated walks). Columns are independent, so a node's signature does
  /// not depend on which nodes share its batch. If an unbounded walk fails
  /// to converge within max_iterations, its node degrades to the truncated
  /// RWR^h walk with rwr_options().fallback_hops hops (counted under
  /// `robust/rwr_fallbacks`) instead of using the unconverged vector.
  std::vector<Signature> ComputeAll(
      const CommGraph& g, std::span<const NodeId> nodes) const override;

  /// Incremental sweep. For c > 0 each focal node's warm state is the
  /// sparse support of its last solved stationary vector plus the drift
  /// accumulated since. An RWR^h support keeps only the entries on the
  /// (h−1)-hop ball, the rows an h-step walk reads (rows h hops away cannot
  /// move it); an unbounded support keeps every entry. Per transition the
  /// changed transition rows' normalized L1 drift is folded against each
  /// stored support (see DESIGN.md §11 for the bound); a node is then
  ///   - reused (signature copied) while accumulated drift stays <=
  ///     rwr_options().incremental_max_drift — exact 0 for any node whose
  ///     support touches no changed row, the common case at high overlap;
  ///   - warm-started (unbounded walks only) while drift <=
  ///     incremental_warm_drift: its engine column is seeded with the
  ///     stored support and converges in the usual criterion;
  ///   - cold-solved otherwise.
  /// Warm and cold nodes re-solve in one batched sweep. A seeded column
  /// that fails to converge is re-solved unseeded; both it and every node
  /// past the warm bound count under `timeline/rwr_warm_start_fallbacks`.
  /// Columns still unconverged take the fallback ladder.
  /// Truncated RWR^h signatures are bit-identical to ComputeAll whenever
  /// drift is exactly 0 and exact re-solves otherwise; unbounded results
  /// stay within incremental_max_drift + solver tolerance in L1.
  /// A c = 0 walk keeps no warm state: every node is reused when no
  /// transition row changed, and every node re-solves cold otherwise.
  std::vector<Signature> IncrementalComputeAll(
      const CommGraph& g, std::span<const NodeId> nodes,
      const GraphDelta* delta, std::vector<Signature> previous,
      std::unique_ptr<IncrementalState>& state) const override;

  /// Runs the power iteration for `v` (a width-1 RwrBatchEngine batch) and
  /// reports convergence explicitly. No fallback ladder.
  RwrSolve Solve(const CommGraph& g, NodeId v) const;

  /// Exposes the full occupancy-probability vector for node `v` (before
  /// top-k truncation). Probabilities sum to 1; index = node id. Used by
  /// tests and by ablation benches. Convenience over Solve() that discards
  /// the convergence report.
  std::vector<double> StationaryVector(const CommGraph& g, NodeId v) const;

  const RwrOptions& rwr_options() const { return rwr_; }

 private:
  /// Sweep core shared by ComputeAll and the incremental re-solve: solves
  /// `nodes` through RwrBatchEngine::SolveBatchSelect against a prebuilt
  /// cache, each column's entries feeding its node's top-k selection
  /// through the Definition-1 filter as the engine hands them over.
  /// `seeds` is empty or index-aligned with `nodes`; a non-empty seed
  /// warm-starts its column. A seeded column that fails to converge is
  /// re-solved unseeded and counted in `*reseeded_columns` (when
  /// non-null); columns still unconverged take the truncated fallback
  /// ladder, each rung discarding the column's earlier selection.
  /// `supports` is empty or index-aligned with `nodes`: each vector is
  /// cleared and receives its node's warm support (interior entries only
  /// for RWR^h walks). Supports must not alias seeds.
  std::vector<Signature> SolveManyBatched(
      const TransitionCache& cache, std::span<const NodeId> nodes,
      std::span<const std::span<const Signature::Entry>> seeds,
      std::span<std::vector<Signature::Entry>* const> supports,
      size_t* reseeded_columns) const;

  RwrOptions rwr_;
};

}  // namespace commsig

#endif  // COMMSIG_CORE_RWR_H_

#ifndef COMMSIG_CORE_INCREMENTAL_H_
#define COMMSIG_CORE_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/scheme.h"
#include "graph/comm_graph.h"

namespace commsig {

/// Drives a scheme's IncrementalComputeAll across a window sequence
/// G_0, G_1, ...: keeps the previous window's graph (for diffing), the
/// previous signatures, and the scheme's opaque warm state, so callers
/// just feed windows in order and read signatures back.
///
/// Determinism: an engine rebuilt mid-sequence (e.g. after a checkpoint
/// restore) primes its first advance with a full sweep, which equals the
/// continuous run's signatures bit-for-bit for TT/UT (whose reuse is
/// bit-identical by construction) and within the scheme's documented
/// epsilon for RWR — engine state therefore never needs to be serialized.
///
/// Not thread-safe; the scheme must outlive the engine.
class IncrementalSignatureEngine {
 public:
  /// `nodes` is the focal population every advance computes, in a fixed
  /// order (signatures() is index-aligned with it).
  IncrementalSignatureEngine(const SignatureScheme& scheme,
                             std::vector<NodeId> nodes);

  /// Consumes the next window graph and returns its signatures. The first
  /// call after construction or Reset primes (full sweep); subsequent
  /// calls diff against the previous window and go incremental. The engine
  /// borrows `g` as the diff base for the next call instead of copying it,
  /// so `g` must stay valid and unmodified until the next AdvanceBorrowed,
  /// Reset or engine destruction — callers keep the window sequence alive
  /// themselves (a materialized `std::vector<CommGraph>`).
  const std::vector<Signature>& AdvanceBorrowed(const CommGraph& g);

  /// Signatures of the most recent window (empty before the first advance).
  const std::vector<Signature>& signatures() const { return current_; }

  std::span<const NodeId> nodes() const { return nodes_; }
  size_t windows_advanced() const { return windows_advanced_; }

  /// Drops all carried state; the next advance primes from scratch.
  void Reset();

 private:
  const SignatureScheme* scheme_;
  std::vector<NodeId> nodes_;
  /// Diff base for the next advance: the caller's previous window.
  const CommGraph* prev_graph_ = nullptr;
  std::vector<Signature> current_;
  std::unique_ptr<IncrementalState> state_;
  size_t windows_advanced_ = 0;
};

}  // namespace commsig

#endif  // COMMSIG_CORE_INCREMENTAL_H_

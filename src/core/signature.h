#ifndef COMMSIG_CORE_SIGNATURE_H_
#define COMMSIG_CORE_SIGNATURE_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/interner.h"

namespace commsig {

/// A communication-graph signature (paper Definition 1): the top-k nodes by
/// relevancy weight for some focal node, stored as (node, weight) entries.
///
/// Entries are kept sorted by node id so that the set operations behind the
/// distance functions are single linear merges. All weights are positive —
/// zero-relevance nodes never enter a signature.
class Signature {
 public:
  struct Entry {
    NodeId node = kInvalidNode;
    double weight = 0.0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// An empty signature (node with no observed relevant neighbours).
  Signature() = default;

  /// Builds a signature from arbitrary candidate weights: keeps the (at
  /// most) k candidates with the largest weights, drops non-positive
  /// weights, and sorts by node id. Ties beyond position k are broken by
  /// smaller node id (deterministic; the paper allows arbitrary
  /// tie-breaking).
  static Signature FromTopK(std::vector<Entry> candidates, size_t k);

  /// Streaming top-k selection with FromTopK's exact ranking (weight desc,
  /// node asc — the top-k set under that strict total order is unique, so
  /// the result equals FromTopK over the same candidates). Lets callers
  /// fuse candidate filtering with selection instead of materializing and
  /// partitioning a candidate vector per focal node, which dominates
  /// all-hosts sweeps with large walk supports. Offer cost is O(1) unless
  /// the candidate enters the running top-k (O(k) then): a full selection
  /// rejects a candidate against its weakest kept entry inline, before any
  /// call.
  class TopKSelector {
   public:
    explicit TopKSelector(size_t k);

    /// Considers one candidate; non-positive and non-finite weights are
    /// ignored, exactly like FromTopK's pre-filter.
    void Offer(Entry e) {
      if (!(e.weight > 0.0) || !std::isfinite(e.weight)) return;
      ++seen_;
      // Keep only candidates that outrank floor_ under the (weight desc,
      // node asc) total order.
      if (e.weight < floor_.weight ||
          (e.weight == floor_.weight && e.node >= floor_.node)) {
        return;
      }
      Admit(e);
    }

    /// Finishes the selection: sorts by node id and observes the same
    /// signature/* metrics FromTopK does. The selector is left empty and
    /// can be reused via Reset.
    Signature Take();

    /// Clears state for the next focal node, with room for k entries.
    void Reset();

   private:
    /// Adds `e`, which outranks floor_, evicting the weakest entry once
    /// the selection is full.
    void Admit(Entry e);

    size_t k_;
    size_t seen_ = 0;     // candidates surviving the weight pre-filter
    size_t weakest_ = 0;  // index into best_ of the lowest-ranked entry
    std::vector<Entry> best_;
    // The entry a candidate must outrank: best_[weakest_] once k entries
    // are kept, weight 0 (every positive weight passes) while filling, and
    // weight +inf (nothing passes) at k = 0.
    Entry floor_;
  };

  /// Entries sorted ascending by node id.
  std::span<const Entry> entries() const { return entries_; }

  /// Flat structure-of-arrays view of the entries, rebuilt whenever the
  /// entries change. The distance kernels consume this instead of the
  /// (node, weight) structs: the merge and galloping search walk the
  /// contiguous u32 id array, and the weight array feeds the 4-lane match
  /// accumulators. Kernels over the structs measured level at k = 3 and
  /// 10, but the galloping tier's gain on skewed pairs fell from
  /// 13.7-24.7x to 9.3-17.4x (perf_distance `<kind>_speedup`, 4-vCPU x86).
  /// total_weight and sum_squares are the per-signature reductions every
  /// kernel denominator needs, hoisted to construction time so a pairwise
  /// scan never re-sums a signature. Pointers are valid while the
  /// signature is alive and unmodified; ids/weights are null when empty.
  struct PackedView {
    const NodeId* ids = nullptr;
    const double* weights = nullptr;
    size_t size = 0;
    double total_weight = 0.0;  // Σ w   (ascending-id accumulation order)
    double sum_squares = 0.0;   // Σ w²  (same order)
  };
  PackedView packed() const {
    return {packed_ids_.data(), packed_weights_.data(), packed_ids_.size(),
            total_weight_, sum_squares_};
  }

  /// Σ w² over the entries, cached at construction (the cosine kernel's
  /// per-signature norm).
  double SumSquares() const { return sum_squares_; }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// True iff `node` appears in the signature. O(log size).
  bool Contains(NodeId node) const { return WeightOf(node) > 0.0; }

  /// Weight of `node` in the signature, or 0 if absent. O(log size).
  double WeightOf(NodeId node) const;

  /// Sum of entry weights. Cached at construction — this sits under
  /// Normalized() and every per-pair distance call, so it must not re-sum
  /// the entries each time.
  double TotalWeight() const { return total_weight_; }

  /// Returns a copy with weights scaled to sum to 1 (no-op when empty).
  /// Useful when comparing signatures whose schemes emit different scales.
  Signature Normalized() const;

  /// Human-readable rendering "{label:weight, ...}" in descending weight
  /// order, using `interner` for labels.
  std::string ToString(const Interner& interner) const;

  /// Equality is over entries only; the cached total is derived state.
  friend bool operator==(const Signature& a, const Signature& b) {
    return a.entries_ == b.entries_;
  }

 private:
  /// Recomputes every piece of derived state from entries_: the cached
  /// total and sum of squares, and the packed SoA arrays. Must be called
  /// by every path that (re)sets entries_.
  void RecomputeTotal();

  std::vector<Entry> entries_;
  std::vector<NodeId> packed_ids_;      // entries_[i].node, flat
  std::vector<double> packed_weights_;  // entries_[i].weight, flat
  double total_weight_ = 0.0;
  double sum_squares_ = 0.0;
};

}  // namespace commsig

#endif  // COMMSIG_CORE_SIGNATURE_H_

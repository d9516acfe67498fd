#ifndef COMMSIG_CORE_DISTANCE_H_
#define COMMSIG_CORE_DISTANCE_H_

#include <cstddef>
#include <span>
#include <string_view>

#include "common/result.h"
#include "core/signature.h"

namespace commsig {

/// The four signature distance functions of Section IV-B. All map a pair of
/// signatures into [0, 1]; 0 means identical support (and, for the weighted
/// variants, identical weights), 1 means disjoint support.
enum class DistanceKind {
  /// Jaccard: 1 - |S1 ∩ S2| / |S1 ∪ S2|. Ignores weights.
  kJaccard,
  /// Weighted Dice: 1 - Σ_{j∈∩}(w1j + w2j) / Σ_{j∈∪}(w1j + w2j).
  kDice,
  /// Scaled Dice: 1 - Σ_{j∈∩} min(w1j, w2j) / Σ_{j∈∪} max(w1j, w2j) —
  /// rewards signatures whose common nodes also carry similar weights.
  kScaledDice,
  /// Scaled Hellinger: 1 - Σ_{j∈∩} sqrt(w1j·w2j) / Σ_{j∈∪} max(w1j, w2j) —
  /// like ScaledDice but with a geometric-mean numerator that penalizes
  /// unequal weights less harshly.
  kScaledHellinger,

  // --- Extensions beyond the paper's four (Section IV-B notes "other
  // functions are certainly suitable"). Not included in AllDistanceKinds()
  // so the figure benches keep the paper's lineup. ---

  /// Cosine: 1 - <w1, w2> / (|w1|·|w2|). Scale-invariant in each
  /// signature's weights.
  kCosine,
  /// Overlap (Szymkiewicz-Simpson): 1 - |S1 ∩ S2| / min(|S1|, |S2|).
  /// Insensitive to signature-length mismatch; useful when comparing
  /// signatures built with different k.
  kOverlap,
};

/// The paper's four kinds, in its presentation order.
std::span<const DistanceKind> AllDistanceKinds();

/// The paper's four plus the extensions.
std::span<const DistanceKind> AllDistanceKindsExtended();

/// Short name: "jac", "dice", "sdice", "shel".
std::string_view DistanceName(DistanceKind kind);

/// Inverse of DistanceName; InvalidArgument for unknown names.
Result<DistanceKind> ParseDistanceName(std::string_view name);

/// One distance kernel, specialized per kind over the packed signature
/// views: it touches only the statistics its formula needs (Jaccard never
/// reads a weight) and runs the two-tier set intersection of DESIGN.md §14 —
/// a scalar linear merge for similar-size sets and galloping search for
/// skewed sizes.
using DistanceKernelFn = double (*)(const Signature&, const Signature&);

/// The kernel for `kind`. Hoist this out of pairwise loops (or use
/// SignatureDistance, which does it for you) so the kind dispatch runs
/// once per scan instead of once per pair.
DistanceKernelFn DistanceKernel(DistanceKind kind);

/// The per-kind arithmetic every kernel ends with (DESIGN.md §14):
/// Dist_kind(a, b) from the m members a and b share, given as a's weights
/// `x` and b's weights `y` in ascending member id, plus the cached sums of
/// each view; an empty side decides the pair as `Distance` documents. A
/// kernel is an intersection plus this finish, so a caller that finds the
/// shared members another way, in the same order (SignatureIndex's row
/// pass), gets the kernel's double. Jaccard and Overlap read only m.
using DistanceFinishFn = double (*)(const Signature::PackedView& a,
                                    const Signature::PackedView& b,
                                    const double* x, const double* y,
                                    size_t m);

/// The finish for `kind`.
DistanceFinishFn DistanceFinish(DistanceKind kind);

/// Computes Dist_kind(a, b).
///
/// Edge cases (both signatures must come from schemes that emit positive
/// weights): two empty signatures are at distance 0 — an individual with no
/// observable communication is "identical to itself"; empty vs non-empty is
/// distance 1.
double Distance(DistanceKind kind, const Signature& a, const Signature& b);

/// Convenience value type bundling a kind with its evaluation; cheap to
/// copy, usable as a function object. Resolves the kernel once at
/// construction, so per-pair calls are a single indirect call with no kind
/// switch.
class SignatureDistance {
 public:
  explicit SignatureDistance(DistanceKind kind)
      : kind_(kind), kernel_(DistanceKernel(kind)) {}

  double operator()(const Signature& a, const Signature& b) const;

  DistanceKind kind() const { return kind_; }
  std::string_view name() const { return DistanceName(kind_); }

 private:
  DistanceKind kind_;
  DistanceKernelFn kernel_;
};

namespace distance_internal {

/// Intersection strategy, normally auto-selected per pair from the set
/// sizes. Exposed so the equivalence tests can force each tier and assert
/// bit-identical results (both tiers emit the same matched-weight sequence
/// in ascending id order, so the accumulated sums are equal bit for bit).
enum class IntersectTier {
  kAuto,
  kMerge,   // scalar two-pointer linear merge
  kGallop,  // galloping/binary search of the smaller set in the larger
};

/// Distance with a forced intersection tier. Test seam; production code
/// goes through Distance()/SignatureDistance, which always auto-select.
double DistanceWithTier(DistanceKind kind, const Signature& a,
                        const Signature& b, IntersectTier tier);

}  // namespace distance_internal

}  // namespace commsig

#endif  // COMMSIG_CORE_DISTANCE_H_

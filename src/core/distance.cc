#include "core/distance.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/simd.h"
#include "obs/obs.h"

namespace commsig {

std::span<const DistanceKind> AllDistanceKinds() {
  static constexpr std::array<DistanceKind, 4> kKinds = {
      DistanceKind::kJaccard, DistanceKind::kDice, DistanceKind::kScaledDice,
      DistanceKind::kScaledHellinger};
  return kKinds;
}

std::span<const DistanceKind> AllDistanceKindsExtended() {
  static constexpr std::array<DistanceKind, 6> kKinds = {
      DistanceKind::kJaccard,  DistanceKind::kDice,
      DistanceKind::kScaledDice, DistanceKind::kScaledHellinger,
      DistanceKind::kCosine,   DistanceKind::kOverlap};
  return kKinds;
}

std::string_view DistanceName(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::kJaccard:
      return "jac";
    case DistanceKind::kDice:
      return "dice";
    case DistanceKind::kScaledDice:
      return "sdice";
    case DistanceKind::kScaledHellinger:
      return "shel";
    case DistanceKind::kCosine:
      return "cos";
    case DistanceKind::kOverlap:
      return "overlap";
  }
  return "?";
}

Result<DistanceKind> ParseDistanceName(std::string_view name) {
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    if (DistanceName(kind) == name) return kind;
  }
  return Status::InvalidArgument("unknown distance: " + std::string(name));
}

// ===========================================================================
// Packed kernels. Design (DESIGN.md §14):
//
//  * Per-signature reductions (Σw, Σw²) are cached on the Signature, so a
//    kernel only accumulates over the *intersection* of the two id sets:
//      Σ_{∪}(w1+w2)  = totalA + totalB
//      Σ_{∪} max     = totalA + totalB − Σ_{∩} min
//      union count   = |A| + |B| − |A∩B|
//    Exclusive entries are never touched — the old single-merge walked and
//    branched over every union element for every pair.
//
//  * The intersection runs over the flat packed id arrays through one of
//    two tiers (auto-selected per pair, forceable for tests). Both emit the
//    same matches in the same ascending-id order, so downstream sums are
//    bit-identical no matter which tier ran.
//
//  * Matched weights are accumulated 4 lanes at a time via simd::VecD,
//    whose fixed logical width makes the result identical across
//    -DCOMMSIG_SIMD=off/avx2/neon builds.
//
//  * A kernel is the intersection plus its kind's finish (DistanceFinish),
//    the reduction over the matched weights. SignatureIndex's row pass
//    feeds the same finish the same matches in the same order.
//
// Duplicate ids: FromTopK does not coalesce duplicate candidate nodes, so a
// signature may (rarely, and only from adversarial inputs) contain repeated
// ids. Both tiers pair occurrences greedily, exactly like the single-merge
// test oracle (tests/ref/distance.h).
// ===========================================================================

namespace {

using distance_internal::IntersectTier;

// --- tier selection thresholds ---------------------------------------------

// Below this (smaller-set) size the scalar merge wins on setup cost alone.
constexpr size_t kTinySize = 16;
// Size ratio at or above which galloping search beats the linear merge.
constexpr size_t kGallopRatio = 8;

// --- sinks ------------------------------------------------------------------

struct CountSink {
  size_t matches = 0;
  void Match(size_t /*ia*/, size_t /*ib*/) { ++matches; }
};

/// Gathers matched weights into two flat arrays (ascending id order), the
/// input of the 4-lane accumulators below.
struct GatherSink {
  const double* wa;
  const double* wb;
  double* out_a;
  double* out_b;
  size_t matches = 0;
  void Match(size_t ia, size_t ib) {
    out_a[matches] = wa[ia];
    out_b[matches] = wb[ib];
    ++matches;
  }
};

/// Adapter for tiers that iterate with the two sets exchanged.
template <typename Sink>
struct SwapSink {
  Sink& inner;
  void Match(size_t ia, size_t ib) { inner.Match(ib, ia); }
};

// --- intersection tiers ----------------------------------------------------
// Both take (a, na, b, nb) with sink indices meaning (index-in-a,
// index-in-b), and emit matches in ascending id order.

template <typename Sink>
void IntersectMerge(const NodeId* a, size_t na, const NodeId* b, size_t nb,
                    Sink& sink) {
  size_t ia = 0, ib = 0;
  while (ia < na && ib < nb) {
    const NodeId x = a[ia];
    const NodeId y = b[ib];
    if (x < y) {
      ++ia;
    } else if (y < x) {
      ++ib;
    } else {
      sink.Match(ia, ib);
      ++ia;
      ++ib;
    }
  }
}

/// Galloping search of the (smaller) a set in the (larger) b set: the b
/// cursor advances by doubling steps then binary search, so a 1:256 skew
/// costs O(na · log(nb/na)) instead of O(na + nb).
template <typename Sink>
void IntersectGallop(const NodeId* a, size_t na, const NodeId* b, size_t nb,
                     Sink& sink) {
  size_t ib = 0;
  for (size_t ia = 0; ia < na && ib < nb; ++ia) {
    const NodeId key = a[ia];
    if (b[ib] < key) {
      // Exponential probe from the cursor: invariant b[lo] < key.
      size_t lo = ib;
      size_t step = 1;
      while (lo + step < nb && b[lo + step] < key) {
        lo += step;
        step <<= 1;
      }
      const size_t end = std::min(lo + step + 1, nb);
      ib = static_cast<size_t>(
          std::lower_bound(b + lo + 1, b + end, key) - b);
    }
    if (ib < nb && b[ib] == key) {
      sink.Match(ia, ib);
      ++ib;
    }
  }
}

IntersectTier ChooseTier(size_t na, size_t nb) {
  const size_t small = std::min(na, nb);
  const size_t big = std::max(na, nb);
  if (small >= kTinySize && big >= small * kGallopRatio) {
    return IntersectTier::kGallop;
  }
  return IntersectTier::kMerge;
}

/// Runs the chosen tier; galloping iterates the smaller set.
template <typename Sink>
void Intersect(const NodeId* a, size_t na, const NodeId* b, size_t nb,
               IntersectTier tier, Sink& sink) {
  if (na == 0 || nb == 0) return;
  if (tier == IntersectTier::kAuto) tier = ChooseTier(na, nb);
  if (tier == IntersectTier::kMerge) {
    IntersectMerge(a, na, b, nb, sink);
  } else if (na <= nb) {
    IntersectGallop(a, na, b, nb, sink);
  } else {
    SwapSink<Sink> swapped{sink};
    IntersectGallop(b, nb, a, na, swapped);
  }
}

// --- matched-weight accumulation -------------------------------------------

struct MatchScratch {
  std::vector<double> wa;
  std::vector<double> wb;
};

MatchScratch& LocalMatchScratch() {
  thread_local MatchScratch scratch;
  return scratch;
}

size_t CountMatches(const Signature::PackedView& a,
                    const Signature::PackedView& b, IntersectTier tier) {
  CountSink sink;
  Intersect(a.ids, a.size, b.ids, b.size, tier, sink);
  return sink.matches;
}

/// Intersects and gathers matched weights into the thread-local scratch;
/// returns the match count. scratch.wa/wb hold the pairs afterwards.
size_t GatherMatches(const Signature::PackedView& a,
                     const Signature::PackedView& b, IntersectTier tier,
                     MatchScratch& scratch) {
  const size_t cap = std::min(a.size, b.size);
  if (scratch.wa.size() < cap) {
    scratch.wa.resize(cap);
    scratch.wb.resize(cap);
  }
  GatherSink sink{a.weights, b.weights, scratch.wa.data(), scratch.wb.data()};
  Intersect(a.ids, a.size, b.ids, b.size, tier, sink);
  return sink.matches;
}

/// Σ op(wa[i], wb[i]) with the canonical 4-lane accumulation pattern:
/// one VecD accumulator over the main body (reduced in ReduceAdd's fixed
/// order), then a left-to-right scalar tail. Identical on every backend.
template <typename LaneOp, typename ScalarOp>
double AccumulateMatches(const double* x, const double* y, size_t m,
                         LaneOp&& lane, ScalarOp&& scalar) {
  simd::VecD acc = simd::Zero();
  size_t i = 0;
  for (; i + simd::kLanes <= m; i += simd::kLanes) {
    acc = simd::Add(acc, lane(simd::LoadU(x + i), simd::LoadU(y + i)));
  }
  double total = simd::ReduceAdd(acc);
  for (; i < m; ++i) total += scalar(x[i], y[i]);
  return total;
}

// --- finishes ---------------------------------------------------------------
// What a kernel does after its intersection: the per-kind reduction over
// the m matched weight pairs (a's in x, b's in y, ascending id) plus the
// cached per-signature sums, including the empty-signature contract. The
// kernels below and SignatureIndex's row pass both end here, so they share
// one copy of the arithmetic and return the same double for the same
// matches.

inline double ClampDistance(double similarity) {
  return std::clamp(1.0 - similarity, 0.0, 1.0);
}

/// Shared empty-signature contract of every kind. Returns true when the
/// pair is decided without its matches.
inline bool EmptyCase(const Signature::PackedView& a,
                      const Signature::PackedView& b, double* out) {
  if (a.size == 0 && b.size == 0) {
    *out = 0.0;
    return true;
  }
  if (a.size == 0 || b.size == 0) {
    *out = 1.0;
    return true;
  }
  return false;
}

double JaccardFinish(const Signature::PackedView& a,
                     const Signature::PackedView& b, const double* /*x*/,
                     const double* /*y*/, size_t m) {
  double decided;
  if (EmptyCase(a, b, &decided)) return decided;
  return ClampDistance(static_cast<double>(m) /
                       static_cast<double>(a.size + b.size - m));
}

double OverlapFinish(const Signature::PackedView& a,
                     const Signature::PackedView& b, const double* /*x*/,
                     const double* /*y*/, size_t m) {
  double decided;
  if (EmptyCase(a, b, &decided)) return decided;
  return ClampDistance(static_cast<double>(m) /
                       static_cast<double>(std::min(a.size, b.size)));
}

double DiceFinish(const Signature::PackedView& a,
                  const Signature::PackedView& b, const double* x,
                  const double* y, size_t m) {
  double decided;
  if (EmptyCase(a, b, &decided)) return decided;
  const double num = AccumulateMatches(
      x, y, m, [](simd::VecD p, simd::VecD q) { return simd::Add(p, q); },
      [](double p, double q) { return p + q; });
  return ClampDistance(num / (a.total_weight + b.total_weight));
}

double ScaledDiceFinish(const Signature::PackedView& a,
                        const Signature::PackedView& b, const double* x,
                        const double* y, size_t m) {
  double decided;
  if (EmptyCase(a, b, &decided)) return decided;
  const double sum_min = AccumulateMatches(
      x, y, m, [](simd::VecD p, simd::VecD q) { return simd::Min(p, q); },
      [](double p, double q) { return p < q ? p : q; });
  // Σ_{∪} max = Σ_A w + Σ_B w − Σ_{∩} min.
  const double sum_max = a.total_weight + b.total_weight - sum_min;
  return ClampDistance(sum_min / sum_max);
}

double ScaledHellingerFinish(const Signature::PackedView& a,
                             const Signature::PackedView& b, const double* x,
                             const double* y, size_t m) {
  double decided;
  if (EmptyCase(a, b, &decided)) return decided;
  // One fused pass, two accumulators: the geometric-mean numerator and the
  // Σ min the denominator rewrite needs.
  simd::VecD geo_acc = simd::Zero();
  simd::VecD min_acc = simd::Zero();
  size_t i = 0;
  for (; i + simd::kLanes <= m; i += simd::kLanes) {
    const simd::VecD vx = simd::LoadU(x + i);
    const simd::VecD vy = simd::LoadU(y + i);
    geo_acc = simd::Add(geo_acc, simd::Sqrt(simd::Mul(vx, vy)));
    min_acc = simd::Add(min_acc, simd::Min(vx, vy));
  }
  double sum_geo = simd::ReduceAdd(geo_acc);
  double sum_min = simd::ReduceAdd(min_acc);
  for (; i < m; ++i) {
    sum_geo += std::sqrt(x[i] * y[i]);
    sum_min += x[i] < y[i] ? x[i] : y[i];
  }
  const double sum_max = a.total_weight + b.total_weight - sum_min;
  return ClampDistance(sum_geo / sum_max);
}

double CosineFinish(const Signature::PackedView& a,
                    const Signature::PackedView& b, const double* x,
                    const double* y, size_t m) {
  double decided;
  if (EmptyCase(a, b, &decided)) return decided;
  const double dot = AccumulateMatches(
      x, y, m, [](simd::VecD p, simd::VecD q) { return simd::Mul(p, q); },
      [](double p, double q) { return p * q; });
  return ClampDistance(dot / std::sqrt(a.sum_squares * b.sum_squares));
}

// --- kernels ----------------------------------------------------------------

/// Jaccard and Overlap read only the match count, so their kernels count
/// the matches without gathering weights.
constexpr bool ReadsWeights(DistanceFinishFn finish) {
  return finish != &JaccardFinish && finish != &OverlapFinish;
}

/// A kernel: the intersection, then the kind's finish.
template <DistanceFinishFn Finish>
double Measure(const Signature& a, const Signature& b, IntersectTier tier) {
  const auto pa = a.packed();
  const auto pb = b.packed();
  if constexpr (ReadsWeights(Finish)) {
    MatchScratch& scratch = LocalMatchScratch();
    const size_t m = GatherMatches(pa, pb, tier, scratch);
    return Finish(pa, pb, scratch.wa.data(), scratch.wb.data(), m);
  } else {
    return Finish(pa, pb, nullptr, nullptr, CountMatches(pa, pb, tier));
  }
}

/// Kernel entry point with the auto tier baked in (function pointers can't
/// carry the tier argument).
template <DistanceFinishFn Finish>
double Kernel(const Signature& a, const Signature& b) {
  return Measure<Finish>(a, b, IntersectTier::kAuto);
}

}  // namespace

DistanceKernelFn DistanceKernel(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::kJaccard:
      return &Kernel<&JaccardFinish>;
    case DistanceKind::kDice:
      return &Kernel<&DiceFinish>;
    case DistanceKind::kScaledDice:
      return &Kernel<&ScaledDiceFinish>;
    case DistanceKind::kScaledHellinger:
      return &Kernel<&ScaledHellingerFinish>;
    case DistanceKind::kCosine:
      return &Kernel<&CosineFinish>;
    case DistanceKind::kOverlap:
      return &Kernel<&OverlapFinish>;
  }
  return &Kernel<&JaccardFinish>;  // unreachable for valid kinds
}

DistanceFinishFn DistanceFinish(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::kJaccard:
      return &JaccardFinish;
    case DistanceKind::kDice:
      return &DiceFinish;
    case DistanceKind::kScaledDice:
      return &ScaledDiceFinish;
    case DistanceKind::kScaledHellinger:
      return &ScaledHellingerFinish;
    case DistanceKind::kCosine:
      return &CosineFinish;
    case DistanceKind::kOverlap:
      return &OverlapFinish;
  }
  return &JaccardFinish;  // unreachable for valid kinds
}

double Distance(DistanceKind kind, const Signature& a, const Signature& b) {
  // Striped relaxed increment: cheap enough for the O(n^2) scan hot loop.
  COMMSIG_COUNTER_ADD("distance/evaluations", 1);
  return DistanceKernel(kind)(a, b);
}

double SignatureDistance::operator()(const Signature& a,
                                     const Signature& b) const {
  COMMSIG_COUNTER_ADD("distance/evaluations", 1);
  return kernel_(a, b);
}

namespace distance_internal {

double DistanceWithTier(DistanceKind kind, const Signature& a,
                        const Signature& b, IntersectTier tier) {
  switch (kind) {
    case DistanceKind::kJaccard:
      return Measure<&JaccardFinish>(a, b, tier);
    case DistanceKind::kDice:
      return Measure<&DiceFinish>(a, b, tier);
    case DistanceKind::kScaledDice:
      return Measure<&ScaledDiceFinish>(a, b, tier);
    case DistanceKind::kScaledHellinger:
      return Measure<&ScaledHellingerFinish>(a, b, tier);
    case DistanceKind::kCosine:
      return Measure<&CosineFinish>(a, b, tier);
    case DistanceKind::kOverlap:
      return Measure<&OverlapFinish>(a, b, tier);
  }
  return 0.0;  // unreachable for valid kinds
}

}  // namespace distance_internal

}  // namespace commsig

// Scalar-vs-SIMD equivalence suite for the vectorized kernels.
//
// Three contracts are pinned here:
//  1. The packed distance kernels match the single-merge test oracle
//     (ref::Distance, tests/ref/distance.h) on randomized signatures across
//     every size/skew/overlap regime — exactly for the count-based kinds,
//     within 1e-12 for the weighted ones (the packed kernels hoist
//     per-signature sums and accumulate 4 lanes at a time, which reorders
//     FP additions).
//  2. Both intersection tiers (merge, gallop) produce the bitwise-identical
//     distance: they emit the same matched-weight sequence in the same
//     order, so forcing either must not change a single bit.
//  3. The RWR block kernels are bit-identical with their scalar reference
//     loops: toggling simd::Enabled() must not change any probability bit.
//     (On -DCOMMSIG_SIMD=off builds the toggle is inert and the test
//     degenerates to scalar==scalar, which keeps the suite green in the CI
//     SIMD matrix while the =auto leg exercises the real comparison.)

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "core/distance.h"
#include "core/rwr.h"
#include "core/rwr_batch.h"
#include "data/flow_generator.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "ref/distance.h"

namespace commsig {
namespace {

using distance_internal::DistanceWithTier;
using distance_internal::IntersectTier;

// ---------------------------------------------------------------------------
// Randomized signature-pair corpus spanning the tier-selection regimes.
// ---------------------------------------------------------------------------

Signature RandomSig(Rng& rng, size_t n, uint32_t universe) {
  std::vector<Signature::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<NodeId>(rng.UniformInt(universe)),
                       rng.UniformDouble() * 10 + 1e-3});
  }
  return Signature::FromTopK(std::move(entries), n);
}

struct PairCase {
  Signature a;
  Signature b;
};

// Empty/singleton/disjoint/identical specials plus randomized draws over
// (sizes, skew, id density). Duplicated ids arise naturally: RandomSig
// draws with replacement and FromTopK keeps repeats, so the dense draws
// check that both tiers pair repeated ids like the reference merge.
std::vector<PairCase> MakeCorpus(uint64_t seed) {
  Rng rng(seed);
  std::vector<PairCase> corpus;

  corpus.push_back({Signature(), Signature()});
  corpus.push_back({Signature(), RandomSig(rng, 5, 100)});
  corpus.push_back({RandomSig(rng, 1, 10), RandomSig(rng, 1, 10)});
  {
    // Structurally disjoint id ranges.
    Signature lo = Signature::FromTopK({{1, 0.3}, {2, 0.7}, {3, 0.1}}, 10);
    Signature hi =
        Signature::FromTopK({{100, 0.4}, {200, 0.6}, {300, 0.2}}, 10);
    corpus.push_back({lo, hi});
  }
  {
    Signature s = RandomSig(rng, 40, 200);
    corpus.push_back({s, s});  // identical
  }

  // (small-size, large-size, universe) sweeps: balanced merges (dense and
  // sparse id ranges), the 1:16 gallop threshold, and deep 1:256 skew.
  struct Shape {
    size_t na, nb;
    uint32_t universe;
  };
  const Shape shapes[] = {
      {8, 8, 40},        {30, 30, 100},     {30, 30, 100000},
      {200, 200, 900},   {200, 200, 500000}, {16, 256, 1200},
      {8, 2048, 10000},  {16, 4096, 20000},  {4096, 16, 20000},
  };
  for (const Shape& s : shapes) {
    for (int rep = 0; rep < 6; ++rep) {
      corpus.push_back(
          {RandomSig(rng, s.na, s.universe), RandomSig(rng, s.nb, s.universe)});
    }
  }
  return corpus;
}

TEST(SimdDistanceTest, PackedMatchesReferenceRandomized) {
  const auto corpus = MakeCorpus(2024);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& [a, b] = corpus[i];
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const double oracle = ref::Distance(kind, a, b);
      const double packed = Distance(kind, a, b);
      if (kind == DistanceKind::kJaccard || kind == DistanceKind::kOverlap) {
        // Count-based kinds divide the same integers: exact.
        EXPECT_DOUBLE_EQ(packed, oracle)
            << "pair " << i << " kind " << DistanceName(kind);
      } else {
        EXPECT_NEAR(packed, oracle, 1e-12)
            << "pair " << i << " kind " << DistanceName(kind);
      }
      EXPECT_GE(packed, 0.0);
      EXPECT_LE(packed, 1.0);
      // Symmetry of the packed kernels (the gallop tier swaps roles
      // internally when the first signature is the larger one).
      EXPECT_DOUBLE_EQ(packed, Distance(kind, b, a))
          << "pair " << i << " kind " << DistanceName(kind);
    }
  }
}

TEST(SimdDistanceTest, AllTiersBitwiseIdentical) {
  const auto corpus = MakeCorpus(77);
  const IntersectTier tiers[] = {IntersectTier::kMerge,
                                 IntersectTier::kGallop};
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& [a, b] = corpus[i];
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const double auto_tier =
          DistanceWithTier(kind, a, b, IntersectTier::kAuto);
      for (IntersectTier tier : tiers) {
        const double forced = DistanceWithTier(kind, a, b, tier);
        // Bitwise, not just ==: both tiers must emit the same matched
        // weights in the same order, making the accumulated sums (and the
        // final division) identical bit for bit.
        uint64_t auto_bits, forced_bits;
        std::memcpy(&auto_bits, &auto_tier, sizeof(auto_bits));
        std::memcpy(&forced_bits, &forced, sizeof(forced_bits));
        EXPECT_EQ(forced_bits, auto_bits)
            << "pair " << i << " kind " << DistanceName(kind) << " tier "
            << static_cast<int>(tier);
      }
    }
  }
}

TEST(SimdDistanceTest, IdenticalSmallSignaturesExactlyZero) {
  // The exactness contract the seed's property tests rely on: sub-vector
  // sizes run the pure scalar tail, where numerator and denominator sums
  // are built from the same operations.
  Signature s = Signature::FromTopK({{1, 0.5}, {2, 0.3}, {7, 0.2}}, 10);
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    EXPECT_DOUBLE_EQ(Distance(kind, s, s), 0.0) << DistanceName(kind);
  }
}

TEST(SimdDistanceTest, KernelTableAgreesWithDistance) {
  const auto corpus = MakeCorpus(13);
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    const DistanceKernelFn kernel = DistanceKernel(kind);
    const SignatureDistance dist(kind);
    for (const auto& [a, b] : corpus) {
      const double direct = Distance(kind, a, b);
      EXPECT_DOUBLE_EQ(kernel(a, b), direct);
      EXPECT_DOUBLE_EQ(dist(a, b), direct);
    }
  }
}

// ---------------------------------------------------------------------------
// RWR block kernels: runtime scalar toggle must not move a single bit.
// ---------------------------------------------------------------------------

CommGraph RandomGraph(size_t n, double edge_prob, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId src = 0; src + 2 < n; ++src) {
    for (NodeId dst = 0; dst < n - 2; ++dst) {
      if (src == dst) continue;
      if (rng.Bernoulli(edge_prob)) {
        b.AddEdge(src, dst, rng.UniformDouble() * 9.5 + 0.5);
      }
    }
    if (rng.Bernoulli(0.5)) {
      b.AddEdge(src, n - 2, rng.UniformDouble() * 9.5 + 0.5);
    }
  }
  return std::move(b).Build();
}

std::vector<RwrScheme::RwrSolve> SolveAll(const TransitionCache& cache,
                                          const RwrOptions& opts,
                                          size_t n) {
  std::vector<NodeId> sources(n);
  std::iota(sources.begin(), sources.end(), 0);
  RwrBatchEngine engine(opts, cache);
  RwrBatchWorkspace ws;
  return engine.SolveBatch(sources, ws);
}

TEST(SimdRwrTest, ScalarToggleBitIdenticalTruncatedAndUnbounded) {
  CommGraph g = RandomGraph(48, 0.15, 91);
  for (const RwrOptions& opts :
       {RwrOptions{.reset = 0.1,
                   .max_hops = 3,
                   .traversal = TraversalMode::kDirected},
        RwrOptions{.reset = 0.2,
                   .max_hops = 0,
                   .tolerance = 1e-10,
                   .max_iterations = 200},
        RwrOptions{.reset = 0.1,
                   .max_hops = 4,
                   .traversal = TraversalMode::kSymmetric}}) {
    TransitionCache cache(g, opts.traversal);
    std::vector<RwrScheme::RwrSolve> simd_solves, scalar_solves;
    {
      simd::SetEnabled(true);
      simd_solves = SolveAll(cache, opts, g.NumNodes());
    }
    {
      simd::ScopedScalar force_scalar;
      scalar_solves = SolveAll(cache, opts, g.NumNodes());
    }
    ASSERT_EQ(simd_solves.size(), scalar_solves.size());
    for (size_t i = 0; i < simd_solves.size(); ++i) {
      ASSERT_EQ(simd_solves[i].iterations, scalar_solves[i].iterations);
      ASSERT_EQ(simd_solves[i].probabilities.size(),
                scalar_solves[i].probabilities.size());
      for (size_t u = 0; u < simd_solves[i].probabilities.size(); ++u) {
        uint64_t sbits, cbits;
        std::memcpy(&sbits, &simd_solves[i].probabilities[u], sizeof(sbits));
        std::memcpy(&cbits, &scalar_solves[i].probabilities[u],
                    sizeof(cbits));
        EXPECT_EQ(sbits, cbits) << "source " << i << " node " << u;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-build golden: the same seeded corpus must hash identically on
// -DCOMMSIG_SIMD=off and =auto builds (the CI matrix runs both). The FNV
// hash covers the raw bit patterns, so any cross-ISA drift — packed
// kernels or RWR block iteration — flips it.
// ---------------------------------------------------------------------------

uint64_t FnvMix(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(SimdCrossBuildTest, DistanceAndRwrGoldenHash) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const auto& [a, b] : MakeCorpus(321)) {
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      h = FnvMix(h, Distance(kind, a, b));
    }
  }
  CommGraph g = RandomGraph(32, 0.2, 55);
  const RwrOptions opts{.reset = 0.1,
                        .max_hops = 3,
                        .traversal = TraversalMode::kDirected};
  TransitionCache cache(g, opts.traversal);
  for (const auto& solve : SolveAll(cache, opts, g.NumNodes())) {
    for (double p : solve.probabilities) h = FnvMix(h, p);
  }
  // Golden recorded from the scalar (-DCOMMSIG_SIMD=off) build; the VecD
  // bit-identity contract requires every backend to reproduce it. If a
  // deliberate numeric change lands (new corpus, new kernel math), re-run
  // once and update the constant from the failure message.
  EXPECT_EQ(h, 0xf2cb59392b48ab1dULL)
      << "golden hash now 0x" << std::hex << h;
}

// The golden above solves directed RWR^3 walks only; this one runs an
// unbounded symmetric batch, whose Chebyshev steps take the Extrapolate
// kernel in both the frontier-sparse and the dense phase: 8 sources on a
// sparse 400-node graph start far below the dense switch (n/4 rows).
TEST(SimdCrossBuildTest, UnboundedSymmetricRwrGoldenHash) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  CommGraph g = RandomGraph(400, 0.005, 55);
  const RwrOptions opts{.reset = 0.1,
                        .max_hops = 0,
                        .traversal = TraversalMode::kSymmetric};
  TransitionCache cache(g, opts.traversal);
  auto& reg = obs::MetricsRegistry::Global();
  [[maybe_unused]] const uint64_t sparse_before =
      reg.GetCounter("rwr/batch_sparse_iterations").Value();
  [[maybe_unused]] const uint64_t dense_before =
      reg.GetCounter("rwr/batch_dense_iterations").Value();
  for (const auto& solve : SolveAll(cache, opts, 8)) {
    for (double p : solve.probabilities) h = FnvMix(h, p);
  }
#ifndef COMMSIG_OBS_DISABLED
  EXPECT_GE(reg.GetCounter("rwr/batch_sparse_iterations").Value() -
                sparse_before,
            2u);
  EXPECT_GT(reg.GetCounter("rwr/batch_dense_iterations").Value() -
                dense_before,
            0u);
#endif
  // Recorded from the scalar (-DCOMMSIG_SIMD=off) build, like the one above.
  EXPECT_EQ(h, 0xcd5788cc0f2a3bd0ULL)
      << "golden hash now 0x" << std::hex << h;
}

}  // namespace
}  // namespace commsig

// The reference distance must itself be right: it is the oracle the packed
// kernels are checked against (tests/core/simd_kernel_test.cc) and the
// baseline they are timed against (bench/perf_distance.cc). These are the
// hand-worked Section IV-B values of tests/core/distance_test.cc, run
// against both the oracle and the production kernels.

#include "ref/distance.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"

namespace commsig {
namespace {

Signature Sig(std::vector<Signature::Entry> entries) {
  return Signature::FromTopK(std::move(entries), 100);
}

using DistanceFn = double (*)(DistanceKind, const Signature&,
                              const Signature&);

struct Impl {
  const char* name;
  DistanceFn fn;
};

struct HandCase {
  DistanceKind kind;
  std::vector<Signature::Entry> a;
  std::vector<Signature::Entry> b;
  double expected;
};

TEST(RefDistanceTest, HandWorkedSectionIVBValues) {
  const Impl impls[] = {{"ref::Distance", &ref::Distance},
                        {"commsig::Distance", &commsig::Distance}};
  // Pair a = {1:0.6, 2:0.4}, b = {1:0.5, 3:0.5}: ∩ = {1}, ∪ = {1, 2, 3},
  // Σ_{∪}(w1 + w2) = 2.0, Σ_{∪} max = 0.6 + 0.4 + 0.5 = 1.5.
  const std::vector<Signature::Entry> a = {{1, 0.6}, {2, 0.4}};
  const std::vector<Signature::Entry> b = {{1, 0.5}, {3, 0.5}};
  const HandCase cases[] = {
      // |∩| / |∪| = 1/3 (Jaccard ignores the weights).
      {DistanceKind::kJaccard, {{1, 0.9}, {2, 0.1}}, {{1, 0.1}, {3, 0.9}},
       1.0 - 1.0 / 3.0},
      // (0.6 + 0.5) / 2.0.
      {DistanceKind::kDice, a, b, 1.0 - 1.1 / 2.0},
      // min(0.6, 0.5) / 1.5.
      {DistanceKind::kScaledDice, a, b, 1.0 - 0.5 / 1.5},
      // sqrt(0.6 · 0.5) / 1.5.
      {DistanceKind::kScaledHellinger, a, b, 1.0 - std::sqrt(0.3) / 1.5},
  };
  for (const Impl& impl : impls) {
    for (const HandCase& c : cases) {
      EXPECT_NEAR(impl.fn(c.kind, Sig(c.a), Sig(c.b)), c.expected, 1e-12)
          << impl.name << " " << DistanceName(c.kind);
    }
  }
}

}  // namespace
}  // namespace commsig

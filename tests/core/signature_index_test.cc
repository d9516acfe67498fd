// Differential test of core/signature_index.h and its callers against the
// brute-force sweeps of tests/ref/all_pairs.h: every distance, uniqueness
// value, multiusage pair, masquerade decision and ROC curve must match bit
// for bit (compared with memcmp), over every distance kind and a spread of
// thresholds, on corpora with empty signatures, repeated ids, identical
// signatures, weights at the edges of the double range, and a flow
// window's TT/UT signatures.

#include "core/signature_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "apps/masquerade_detector.h"
#include "apps/multiusage.h"
#include "common/random.h"
#include "core/scheme.h"
#include "data/flow_generator.h"
#include "eval/properties.h"
#include "obs/metrics.h"
#include "ref/all_pairs.h"

namespace commsig {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// `n` signatures of 0–8 entries over a 24-id universe, so most pairs
/// share a member and many share none. About one in ten is a copy of an
/// earlier one, one in nine is empty, and ids repeat within a signature
/// (FromTopK does not coalesce them). Weights are (0.01, 1.01) times
/// `scale`.
std::vector<Signature> RandomCorpus(uint64_t seed, size_t n,
                                    double scale = 1.0) {
  Rng rng(seed);
  std::vector<Signature> sigs;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.Bernoulli(0.1)) {
      sigs.push_back(sigs[rng.UniformInt(i)]);
      continue;
    }
    const size_t k = rng.UniformInt(9);
    std::vector<Signature::Entry> entries;
    for (size_t e = 0; e < k; ++e) {
      entries.push_back({static_cast<NodeId>(rng.UniformInt(24)),
                         scale * (rng.UniformDouble() + 0.01)});
    }
    if (k > 0 && rng.Bernoulli(0.2)) entries.push_back(entries[0]);
    sigs.push_back(Signature::FromTopK(std::move(entries), 16));
  }
  return sigs;
}

/// Weights at the edges: tiny (Σw² underflows, so cosine gives NaN), huge
/// (Σw and Σw² overflow), mixed within one signature, and ordinary.
std::vector<Signature> ExtremeCorpus() {
  std::vector<Signature> sigs;
  for (double scale : {1e-200, 1e-160, 1e300, 1e155, 1.0}) {
    for (const Signature& s : RandomCorpus(17, 8, scale)) sigs.push_back(s);
  }
  sigs.push_back(Signature::FromTopK({{1, 1e-300}, {2, 1.0}, {3, 1e300}}, 8));
  sigs.push_back(Signature::FromTopK({{2, 1e-300}, {5, 1e-310}}, 8));
  return sigs;
}

struct FlowWindow {
  std::vector<Signature> tt, ut;
};

const FlowWindow& Flow() {
  static const FlowWindow* flow = [] {
    FlowGeneratorConfig cfg;
    cfg.num_local_hosts = 60;
    cfg.num_external_hosts = 3000;
    cfg.num_windows = 1;
    cfg.seed = 7;
    const FlowDataset ds = FlowTraceGenerator(cfg).Generate();
    const std::vector<CommGraph> windows = ds.Windows();
    SchemeOptions opts{.k = 10, .restrict_to_opposite_partition = true};
    auto* w = new FlowWindow;
    w->tt = (*CreateScheme("tt", opts))->ComputeAll(windows[0],
                                                    ds.local_hosts);
    w->ut = (*CreateScheme("ut", opts))->ComputeAll(windows[0],
                                                    ds.local_hosts);
    return w;
  }();
  return *flow;
}

struct Corpus {
  std::string name;
  std::vector<Signature> sigs;
};

std::vector<Corpus> Corpora() {
  return {{"random1", RandomCorpus(1, 40)},
          {"random2", RandomCorpus(2, 33)},
          {"extreme", ExtremeCorpus()},
          {"all_empty", std::vector<Signature>(5)},
          {"single", RandomCorpus(3, 1)},
          {"none", {}},
          {"flow_tt", Flow().tt},
          {"flow_ut", Flow().ut}};
}

constexpr double kThresholds[] = {-0.5, 0.0,  0.1, 0.25, 0.5,
                                  0.75, 0.9,  0.999, 1.0, 2.0};

std::vector<SignatureIndex::Pair> SortedByIndex(
    std::vector<SignatureIndex::Pair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return x.i != y.i ? x.i < y.i : x.j < y.j;
  });
  return pairs;
}

TEST(SignatureIndexTest, ThresholdJoinMatchesBruteForce) {
  for (const Corpus& c : Corpora()) {
    const SignatureIndex index(c.sigs);
    const size_t n = c.sigs.size();
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const SignatureDistance dist(kind);
      for (double t : kThresholds) {
        SCOPED_TRACE(c.name + " " + std::string(dist.name()) + " t=" +
                     std::to_string(t));
        size_t scored = 0;
        const auto got = SortedByIndex(index.ThresholdJoin(dist, t, &scored));
        const auto want = ref::ThresholdJoin(c.sigs, dist, t);
        ASSERT_EQ(got.size(), want.size());
        for (size_t p = 0; p < got.size(); ++p) {
          EXPECT_EQ(got[p].i, want[p].i);
          EXPECT_EQ(got[p].j, want[p].j);
          EXPECT_TRUE(SameBits(got[p].distance, want[p].distance));
        }
        EXPECT_LE(scored, n < 2 ? 0 : n * (n - 1) / 2);
      }
    }
  }
}

TEST(SignatureIndexTest, RandomizedJoinMatchesBruteForce) {
  // Many small corpora, one heavy member per signature half the time, so
  // prefixes stop early and pairs land near every threshold.
  for (uint64_t seed = 100; seed < 400; ++seed) {
    std::vector<Signature> sigs = RandomCorpus(seed, 16);
    Rng rng(seed);
    for (Signature& s : sigs) {
      if (s.empty() || !rng.Bernoulli(0.5)) continue;
      std::vector<Signature::Entry> entries(s.entries().begin(),
                                            s.entries().end());
      entries[rng.UniformInt(entries.size())].weight *= 20.0;
      s = Signature::FromTopK(std::move(entries), 16);
    }
    const SignatureIndex index(sigs);
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const SignatureDistance dist(kind);
      for (double t : kThresholds) {
        const auto got = SortedByIndex(index.ThresholdJoin(dist, t));
        const auto want = ref::ThresholdJoin(sigs, dist, t);
        ASSERT_EQ(got.size(), want.size())
            << "seed " << seed << " " << dist.name() << " t=" << t;
        for (size_t p = 0; p < got.size(); ++p) {
          ASSERT_TRUE(got[p].i == want[p].i && got[p].j == want[p].j &&
                      SameBits(got[p].distance, want[p].distance))
              << "seed " << seed << " " << dist.name() << " t=" << t;
        }
      }
    }
  }
}

TEST(SignatureIndexTest, NaNThresholdAdmitsNothing) {
  const auto sigs = RandomCorpus(4, 10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(SignatureIndex(sigs)
                  .ThresholdJoin(SignatureDistance(DistanceKind::kJaccard), nan)
                  .empty());
}

TEST(SignatureIndexTest, PrefixFilterScoresFewerPairsThanShareRule) {
  // On the flow window the SHel floor at t = 0.5 prunes beyond the
  // share-a-member rule that Dice uses, and both prune some pairs.
  const auto& sigs = Flow().tt;
  const SignatureIndex index(sigs);
  size_t shel = 0, dice = 0;
  index.ThresholdJoin(SignatureDistance(DistanceKind::kScaledHellinger), 0.5,
                      &shel);
  index.ThresholdJoin(SignatureDistance(DistanceKind::kDice), 0.5, &dice);
  EXPECT_LT(shel, dice);
  EXPECT_LT(dice, sigs.size() * (sigs.size() - 1) / 2);
}

TEST(SignatureIndexTest, EveryPairOutsideCandidatesIsAtOne) {
  for (const Corpus& c : Corpora()) {
    const SignatureIndex index(c.sigs);
    std::vector<uint32_t> near;
    for (const Corpus& probes : Corpora()) {
      for (const Signature& probe : probes.sigs) {
        index.Candidates(probe, 0, near);
        ASSERT_TRUE(std::is_sorted(near.begin(), near.end()));
        ASSERT_EQ(std::adjacent_find(near.begin(), near.end()), near.end());
        size_t next = 0;
        for (size_t u = 0; u < c.sigs.size(); ++u) {
          if (next < near.size() && near[next] == u) {
            ++next;
            continue;
          }
          for (DistanceKind kind : AllDistanceKindsExtended()) {
            EXPECT_TRUE(SameBits(Distance(kind, probe, c.sigs[u]), 1.0))
                << c.name << " vs " << probes.name << " u=" << u;
          }
        }
      }
    }
  }
}

TEST(SignatureIndexTest, EmptyAndExtremeProbes) {
  std::vector<Signature> sigs = {
      Signature(), Signature::FromTopK({{1, 1.0}}, 4), Signature(),
      Signature::FromTopK({{9, 1e-200}}, 4),
      Signature::FromTopK({{8, 1e200}}, 4)};
  const SignatureIndex index(sigs);
  std::vector<uint32_t> near;
  index.Candidates(Signature(), 0, near);
  EXPECT_EQ(near, (std::vector<uint32_t>{0, 2}));
  index.Candidates(Signature(), 1, near);
  EXPECT_EQ(near, (std::vector<uint32_t>{2}));
  // A probe sharing nothing still gets the extreme-norm signatures.
  index.Candidates(Signature::FromTopK({{5, 1.0}}, 4), 0, near);
  EXPECT_EQ(near, (std::vector<uint32_t>{3, 4}));
  index.Candidates(Signature::FromTopK({{5, 1e-200}}, 4), 1, near);
  EXPECT_EQ(near, (std::vector<uint32_t>{1, 2, 3, 4}));
  index.Candidates(Signature::FromTopK({{5, 1e200}}, 4), 4, near);
  EXPECT_EQ(near, (std::vector<uint32_t>{4}));
  index.Candidates(Signature::FromTopK({{1, 2.0}}, 4), 5, near);
  EXPECT_TRUE(near.empty());
}

TEST(SignatureIndexTest, DistanceRowMatchesBruteForce) {
  // Every `first` from 0 to n: the row pass starts each posting at its own
  // tail, so every cut through every posting is covered.
  for (const Corpus& c : Corpora()) {
    const SignatureIndex index(c.sigs);
    const size_t n = c.sigs.size();
    for (const Corpus& probes : Corpora()) {
      for (DistanceKind kind : AllDistanceKindsExtended()) {
        const SignatureDistance dist(kind);
        for (const Signature& probe : probes.sigs) {
          const std::vector<double> want = ref::DistanceRow(probe, c.sigs, dist);
          for (size_t first = 0; first <= n; ++first) {
            std::vector<double> row(n - first);
            index.DistanceRow(probe, dist, first, row);
            ASSERT_TRUE(SameBits(
                row, std::vector<double>(want.begin() + first, want.end())))
                << c.name << " probed by " << probes.name << " "
                << dist.name() << " first=" << first;
          }
        }
      }
    }
  }
}

TEST(SignatureIndexTest, RowOfOnlyExtremeCandidates) {
  // A probe that shares no member still scores every extreme signature, at
  // zero matches: cosine's norm product underflows to NaN or overflows,
  // and SHel's Σ∪max can be infinite. The plain ones stay at 1.0.
  std::vector<Signature> sigs = {
      Signature::FromTopK({{1, 1.0}, {2, 2.0}}, 4),
      Signature::FromTopK({{3, 1e-200}, {4, 1e-180}}, 4),
      Signature(),
      Signature::FromTopK({{5, 1e200}, {6, 1e300}}, 4),
      Signature::FromTopK({{7, 1e-300}, {8, 1e300}}, 4)};
  const SignatureIndex index(sigs);
  const Signature probe = Signature::FromTopK({{9, 0.5}, {10, 1e-160}}, 4);
  std::vector<uint32_t> near;
  index.Candidates(probe, 0, near);
  ASSERT_EQ(near, (std::vector<uint32_t>{1, 3, 4}));
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    const SignatureDistance dist(kind);
    std::vector<double> row(sigs.size());
    EXPECT_EQ(index.DistanceRow(probe, dist, 0, row), near.size());
    EXPECT_TRUE(SameBits(row, ref::DistanceRow(probe, sigs, dist)))
        << dist.name();
  }
}

TEST(SignatureIndexTest, RowsWhoseTailsNameEveryLaterSignatureTwice) {
  // Every signature past the probe shares two members with it, so the
  // row's posting tails hold more entries than it has candidates. Each
  // case runs on a new thread, whose row scratch starts empty and sized to
  // the row, which is where a write past the candidates would land outside
  // the allocation (and show under ASan).
  const std::vector<Signature> copies = {
      Signature::FromTopK({{1, 1.0}, {2, 2.0}}, 4),
      Signature::FromTopK({{1, 1.0}, {2, 2.0}}, 4)};
  const std::vector<Signature> tail_pair = {
      Signature::FromTopK({{3, 1.0}, {4, 0.5}}, 4),
      Signature::FromTopK({{1, 3.0}, {2, 1.0}, {5, 2.0}}, 4),
      Signature::FromTopK({{1, 1.0}, {2, 4.0}, {6, 1.0}}, 4)};
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    const SignatureDistance dist(kind);
    SCOPED_TRACE(std::string(dist.name()));
    for (double t : {0.5, 1.0}) {
      std::vector<SignatureIndex::Pair> got;
      std::thread([&] {
        got = SignatureIndex(copies).ThresholdJoin(dist, t);
      }).join();
      const auto want = ref::ThresholdJoin(copies, dist, t);
      ASSERT_EQ(got.size(), want.size()) << "t=" << t;
      for (size_t p = 0; p < got.size(); ++p) {
        EXPECT_TRUE(SameBits(got[p].distance, want[p].distance));
      }
    }
    const size_t n = tail_pair.size();
    std::vector<double> row(1);
    std::thread([&] {
      SignatureIndex(tail_pair).DistanceRow(tail_pair[n - 2], dist, n - 1,
                                            row);
    }).join();
    const std::vector<double> want =
        ref::DistanceRow(tail_pair[n - 2], tail_pair, dist, n - 1);
    EXPECT_TRUE(SameBits(row, want));
  }
}

#ifndef COMMSIG_OBS_DISABLED
TEST(SignatureIndexTest, RowsAndJoinsCountTheirCandidates) {
  // distance/evaluations grows by the candidates each row or join scores,
  // the count of pairs the per-pair loop handed to the kernel. The totals
  // on the flow window's TT signatures are pinned.
  const auto& sigs = Flow().tt;
  const size_t n = sigs.size();
  const SignatureIndex index(sigs);
  obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("distance/evaluations");
  std::vector<uint32_t> near;
  std::vector<double> row(n);
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    const SignatureDistance dist(kind);
    SCOPED_TRACE(std::string(dist.name()));
    uint64_t upper = 0, full = 0;
    for (size_t v = 0; v < n; ++v) {
      for (size_t first : {v + 1, size_t{0}}) {
        index.Candidates(sigs[v], first, near);
        const uint64_t before = evaluations.Value();
        const size_t scored = index.DistanceRow(
            sigs[v], dist, first, std::span(row).first(n - first));
        EXPECT_EQ(scored, near.size());
        EXPECT_EQ(evaluations.Value() - before, scored);
        (first == 0 ? full : upper) += scored;
      }
    }
    EXPECT_EQ(upper, 1208u);
    EXPECT_EQ(full, 2476u);
    for (double t : {0.5, 1.0}) {
      size_t scored = 0;
      const uint64_t before = evaluations.Value();
      index.ThresholdJoin(dist, t, &scored);
      EXPECT_EQ(evaluations.Value() - before, scored);
      size_t pinned = 1208;
      if (t < 1.0 && kind == DistanceKind::kJaccard) pinned = 44;
      if (t < 1.0 && kind == DistanceKind::kScaledDice) pinned = 60;
      if (t < 1.0 && kind == DistanceKind::kScaledHellinger) pinned = 331;
      EXPECT_EQ(scored, pinned) << "t=" << t;
    }
  }
}
#endif  // COMMSIG_OBS_DISABLED

TEST(SignatureIndexDeathTest, DistanceRowRejectsAWrongSizedRow) {
  // The row pass writes out[u − first] by index, so a short span must stop
  // the process in every build mode, not only under assert().
  const auto sigs = RandomCorpus(6, 12);
  const SignatureIndex index(sigs);
  const SignatureDistance dist(DistanceKind::kJaccard);
  std::vector<double> row(sigs.size());
  EXPECT_DEATH(index.DistanceRow(sigs[0], dist, 0,
                                 std::span(row).first(sigs.size() - 1)),
               "COMMSIG_CHECK failed");
  EXPECT_DEATH(index.DistanceRow(sigs[0], dist, 2, row),
               "COMMSIG_CHECK failed");
  EXPECT_DEATH(index.DistanceRow(sigs[0], dist, sigs.size() + 1,
                                 std::span(row).first(0)),
               "COMMSIG_CHECK failed");
}

TEST(SignatureIndexTest, MultiusageMatchesBruteForce) {
  for (const Corpus& c : Corpora()) {
    // Labels out of index order, so the (distance, a, b) sort matters.
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < c.sigs.size(); ++i) {
      nodes.push_back(static_cast<NodeId>((i * 37 + 11) % 101));
    }
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const SignatureDistance dist(kind);
      for (double t : kThresholds) {
        for (size_t cap : {size_t{0}, size_t{3}, size_t{50}}) {
          SCOPED_TRACE(c.name + " " + std::string(dist.name()) + " t=" +
                       std::to_string(t) + " cap=" + std::to_string(cap));
          const MultiusageDetector::Options opts{.threshold = t,
                                                 .max_pairs = cap};
          const auto got = MultiusageDetector(dist, opts).Detect(nodes, c.sigs);
          const auto want = ref::MultiusagePairs(nodes, c.sigs, dist, opts);
          ASSERT_EQ(got.size(), want.size());
          for (size_t p = 0; p < got.size(); ++p) {
            EXPECT_EQ(got[p].a, want[p].a);
            EXPECT_EQ(got[p].b, want[p].b);
            EXPECT_TRUE(SameBits(got[p].distance, want[p].distance));
          }
        }
      }
    }
  }
}

TEST(SignatureIndexTest, UniquenessMatchesBruteForce) {
  for (const Corpus& c : Corpora()) {
    const size_t n = c.sigs.size();
    const size_t total = n < 2 ? 0 : n * (n - 1) / 2;
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const SignatureDistance dist(kind);
      const auto want = ref::UniquenessAllPairs(c.sigs, dist);
      EXPECT_TRUE(SameBits(UniquenessValues(c.sigs, dist), want))
          << c.name << " " << dist.name();
      // A cap the pairs fit under still takes the all-pairs branch.
      EXPECT_TRUE(SameBits(UniquenessValues(c.sigs, dist, total), want))
          << c.name << " " << dist.name();
    }
  }
}

/// σ_{t+1} for the masquerade corpora: each signature keeps, loses or
/// replaces its members, so some suspects share nothing with any σ_{t+1}
/// and their whole top-ℓ is a tie at A = 0.
std::vector<Signature> NextWindow(const std::vector<Signature>& sigs,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Signature> next;
  for (const Signature& s : sigs) {
    const double roll = rng.UniformDouble();
    if (roll < 0.4) {
      next.push_back(s);
    } else if (roll < 0.55) {
      next.push_back(Signature());
    } else if (roll < 0.8) {
      std::vector<Signature::Entry> entries;
      for (const auto& e : s.entries()) {
        entries.push_back({e.node + 1000, e.weight});  // nobody holds these
      }
      next.push_back(Signature::FromTopK(std::move(entries), 16));
    } else {
      next.push_back(sigs[rng.UniformInt(sigs.size())]);
    }
  }
  return next;
}

bool SameDetection(const MasqueradeDetection& a,
                   const MasqueradeDetection& b) {
  return a.non_suspects == b.non_suspects && a.detected == b.detected &&
         SameBits(a.delta, b.delta);
}

TEST(SignatureIndexTest, MasqueradeMatchesBruteForce) {
  for (const Corpus& c : Corpora()) {
    const std::vector<Signature> next = NextWindow(c.sigs, 99);
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < c.sigs.size(); ++i) {
      nodes.push_back(static_cast<NodeId>(500 - i));
    }
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const SignatureDistance dist(kind);
      for (size_t ell : {size_t{0}, size_t{1}, size_t{3}, size_t{10},
                         size_t{1000}}) {
        // Derived δ, and δ = 1 (every node a suspect).
        for (double fixed : {-1.0, 1.0}) {
          const MasqueradeDetector::Options opts{
              .top_ell = ell, .delta_divisor = 5.0, .fixed_delta = fixed};
          EXPECT_TRUE(SameDetection(
              MasqueradeDetector(dist, opts).Detect(nodes, c.sigs, next),
              ref::MasqueradeDetect(nodes, c.sigs, next, dist, opts)))
              << c.name << " " << dist.name() << " ell=" << ell
              << " delta=" << fixed;
        }
      }
    }
  }
}

bool SameRocs(const std::vector<RocResult>& a,
              const std::vector<RocResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (!SameBits(a[q].auc, b[q].auc)) return false;
    if (a[q].curve.size() != b[q].curve.size()) return false;
    for (size_t p = 0; p < a[q].curve.size(); ++p) {
      if (!SameBits(a[q].curve[p].fpr, b[q].curve[p].fpr) ||
          !SameBits(a[q].curve[p].tpr, b[q].curve[p].tpr)) {
        return false;
      }
    }
  }
  return true;
}

TEST(SignatureIndexTest, RocSweepsMatchBruteForce) {
  for (const Corpus& c : Corpora()) {
    const std::vector<Signature> next = NextWindow(c.sigs, 5);
    const size_t n = c.sigs.size();
    // Every third node is a query; its relevant set is its two successors.
    std::vector<Signature> queries;
    std::vector<size_t> query_indices;
    std::vector<std::vector<size_t>> relevant;
    for (size_t q = 0; q < n; q += 3) {
      queries.push_back(c.sigs[q]);
      query_indices.push_back(q);
      relevant.push_back({});
      for (size_t r = q + 1; r < std::min(n, q + 3); ++r) {
        relevant.back().push_back(r);
      }
    }
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      const SignatureDistance dist(kind);
      EXPECT_TRUE(SameRocs(SelfMatchRoc(c.sigs, next, dist),
                           ref::SelfMatchRoc(c.sigs, next, dist)))
          << c.name << " " << dist.name();
      for (bool exclude_self : {false, true}) {
        EXPECT_TRUE(SameRocs(
            SetMatchRoc(queries, query_indices, next, relevant, dist,
                        exclude_self),
            ref::SetMatchRoc(queries, query_indices, next, relevant, dist,
                             exclude_self)))
            << c.name << " " << dist.name() << " exclude=" << exclude_self;
      }
    }
  }
}

}  // namespace
}  // namespace commsig

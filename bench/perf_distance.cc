// Microbenchmarks: distance-function evaluation cost per kind and
// signature length — the inner loop of every application — and the
// threshold join that multiusage detection runs over one window.
//
// BM_Distance times one pair per kind at the signature lengths k in
// {3, 10, 50, 200}; k = 3 and k = 10 are the paper's query-log and flow
// settings. Both sides of the pair have k entries, so every row runs the
// scalar merge.
//
// BM_PairwiseDistances sweeps every kernel over size-skew ratios 1:1,
// 1:16, 1:256 in both implementations (impl:0 = ref::Distance, the
// single-merge test oracle from tests/ref/; impl:1 = the packed kernels,
// which merge at 1:1 and gallop at 1:16 and 1:256); main() derives the
// in-run `distance/<kind>_speedup` gauges that
// bench/baselines/BENCH_distance.baseline.json guards in CI.
//
// BM_ThresholdJoin runs the signature index's threshold join (t = 0.5) on
// a flow window's TT signatures against the brute-force join of
// tests/ref/, for the paper's four kinds; main() derives
// `distance/join_<kind>_speedup`, and each index row sets
// `distance/join_<kind>_candidates_count`, the pairs it scored.
//
// BM_DistanceRow scores every row of the same window's TT signatures, each
// probe against the signatures after it (uniqueness' all-pairs sweep),
// through SignatureIndex::DistanceRow against ref::DistanceRow, the kernel
// on every pair; main() derives `distance/row_<kind>_speedup`.

#include <benchmark/benchmark.h>

#include "bench/bench_registry.h"
#include "common/random.h"
#include "core/distance.h"
#include "core/signature_index.h"
#include "core/top_talkers.h"
#include "data/flow_generator.h"
#include "obs/metrics.h"
#include "ref/all_pairs.h"
#include "ref/distance.h"

namespace commsig {
namespace {

std::pair<Signature, Signature> MakePair(size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<Signature::Entry> ea, eb;
  for (size_t i = 0; i < k; ++i) {
    NodeId shared = static_cast<NodeId>(rng.UniformInt(1000));
    ea.push_back({shared, rng.UniformDouble() + 0.01});
    // ~half the nodes shared between the two signatures.
    if (rng.Bernoulli(0.5)) {
      eb.push_back({shared, rng.UniformDouble() + 0.01});
    } else {
      eb.push_back({static_cast<NodeId>(1000 + rng.UniformInt(1000)),
                    rng.UniformDouble() + 0.01});
    }
  }
  return {Signature::FromTopK(std::move(ea), k),
          Signature::FromTopK(std::move(eb), k)};
}

void BM_Distance(benchmark::State& state) {
  DistanceKind kind = static_cast<DistanceKind>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  auto [a, b] = MakePair(k, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Distance(kind, a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(DistanceName(kind)));
}
BENCHMARK(BM_Distance)
    ->ArgsProduct({{0, 1, 2, 3}, {3, 10, 50, 200}})
    ->ArgNames({"kind", "k"});

// --- skew-sweep pairwise bench ---------------------------------------------

// Signature sizes per skew level. Level 0 exercises the similar-size
// merge, level 1 (1:16) is past the gallop threshold (1:8), level 2 (1:256)
// is deep gallop territory.
struct SkewShape {
  size_t small;
  size_t large;
  const char* label;
};
constexpr SkewShape kSkews[] = {
    {192, 192, "1:1"}, {64, 1024, "1:16"}, {16, 4096, "1:256"}};

// One signature of `k` entries drawn from an id universe sized so that
// ~half of the smaller signature intersects the larger one.
Signature MakeSized(size_t k, uint32_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<Signature::Entry> entries;
  entries.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    entries.push_back({static_cast<NodeId>(rng.UniformInt(universe)),
                       rng.UniformDouble() + 0.01});
  }
  return Signature::FromTopK(std::move(entries), k);
}

// A small corpus of pairs per shape, so one benchmark iteration touches
// varied id layouts instead of replaying one branch-predictable pair.
std::vector<std::pair<Signature, Signature>> MakeCorpus(
    const SkewShape& shape) {
  // Universe 4x the large side: dense id ranges, so ~half of the smaller
  // side's ids land in the larger one at every skew.
  const uint32_t universe = static_cast<uint32_t>(4 * shape.large);
  std::vector<std::pair<Signature, Signature>> corpus;
  for (uint64_t s = 0; s < 16; ++s) {
    corpus.emplace_back(MakeSized(shape.small, universe, 2 * s + 1),
                        MakeSized(shape.large, universe, 2 * s + 2));
  }
  return corpus;
}

// args: kind (extended lineup, 0..5), skew level (0..2), impl (0 =
// ref::Distance, 1 = packed kernels). items/sec counts pairs, so
// real_time_ns is ns/pair.
void BM_PairwiseDistances(benchmark::State& state) {
  const DistanceKind kind = static_cast<DistanceKind>(state.range(0));
  const SkewShape& shape = kSkews[state.range(1)];
  const bool packed = state.range(2) == 1;
  const auto corpus = MakeCorpus(shape);
  const SignatureDistance dist(kind);
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& [a, b] : corpus) {
      sum += packed ? dist(a, b) : ref::Distance(kind, a, b);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * corpus.size());
  state.SetLabel(std::string(DistanceName(kind)) + " " + shape.label +
                 (packed ? " packed" : " reference"));
}
BENCHMARK(BM_PairwiseDistances)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1, 2}, {0, 1}})
    ->ArgNames({"kind", "skew", "impl"});

// --- threshold join ---------------------------------------------------------

// One flow window's TT signatures (300 hosts, k = 10, seed 42): the
// multiusage sweep's input at the paper's flow scale, 44 850 pairs.
const std::vector<Signature>& FlowWindowTt() {
  static const std::vector<Signature>* sigs = [] {
    FlowGeneratorConfig cfg;
    cfg.num_local_hosts = 300;
    cfg.num_external_hosts = 20000;
    cfg.num_windows = 1;
    cfg.seed = 42;
    const FlowDataset ds = FlowTraceGenerator(cfg).Generate();
    TopTalkersScheme tt({.k = 10, .restrict_to_opposite_partition = true});
    return new std::vector<Signature>(
        tt.ComputeAll(ds.Windows()[0], ds.local_hosts));
  }();
  return *sigs;
}

constexpr double kJoinThreshold = 0.5;

// args: kind (paper lineup, 0..3), impl (0 = ref::ThresholdJoin, the
// brute-force sweep of tests/ref/; 1 = SignatureIndex, built inside the
// timed loop as MultiusageDetector builds it per call). The index rows
// publish the pairs they hand to the kernel as
// distance/join_<kind>_candidates_count, a deterministic work count.
void BM_ThresholdJoin(benchmark::State& state) {
  const DistanceKind kind = static_cast<DistanceKind>(state.range(0));
  const bool indexed = state.range(1) == 1;
  const std::vector<Signature>& sigs = FlowWindowTt();
  const SignatureDistance dist(kind);
  size_t found = 0, scored = 0;
  for (auto _ : state) {
    found = indexed ? SignatureIndex(sigs)
                          .ThresholdJoin(dist, kJoinThreshold, &scored)
                          .size()
                    : ref::ThresholdJoin(sigs, dist, kJoinThreshold).size();
    benchmark::DoNotOptimize(found);
  }
  if (indexed) {
    obs::MetricsRegistry::Global()
        .GetGauge("distance/join_" + std::string(DistanceName(kind)) +
                  "_candidates_count")
        .Set(static_cast<double>(scored));
  }
  state.counters["pairs_found"] = static_cast<double>(found);
  state.SetLabel(std::string(DistanceName(kind)) +
                 (indexed ? " index" : " brute force"));
}
BENCHMARK(BM_ThresholdJoin)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->ArgNames({"kind", "impl"});

// --- distance rows ----------------------------------------------------------

// args: kind (paper lineup, 0..3), impl (0 = ref::DistanceRow; 1 =
// SignatureIndex::DistanceRow, the index built inside the timed loop as
// UniquenessValues builds it per call). Row v holds u > v: 44 850 pairs.
void BM_DistanceRow(benchmark::State& state) {
  const DistanceKind kind = static_cast<DistanceKind>(state.range(0));
  const bool indexed = state.range(1) == 1;
  const std::vector<Signature>& sigs = FlowWindowTt();
  const SignatureDistance dist(kind);
  const size_t n = sigs.size();
  std::vector<double> row(n);
  for (auto _ : state) {
    if (indexed) {
      const SignatureIndex index(sigs);
      for (size_t v = 0; v < n; ++v) {
        index.DistanceRow(sigs[v], dist, v + 1,
                          std::span(row).first(n - v - 1));
        benchmark::DoNotOptimize(row.data());
      }
    } else {
      for (size_t v = 0; v < n; ++v) {
        benchmark::DoNotOptimize(ref::DistanceRow(sigs[v], sigs, dist, v + 1));
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1) / 2);
  state.SetLabel(std::string(DistanceName(kind)) +
                 (indexed ? " index" : " brute force"));
}
BENCHMARK(BM_DistanceRow)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->ArgNames({"kind", "impl"});

}  // namespace
}  // namespace commsig

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  commsig::bench::RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Derived per-kernel speedup gauges, measured within this run: reference
  // single-merge time over packed-kernel time, averaged across the three
  // skew shapes so neither tier can carry the number alone. These are what
  // tools/bench_guard.py holds against the checked-in baseline.
  auto& reg = commsig::obs::MetricsRegistry::Global();
  for (int kind = 0; kind < 6; ++kind) {
    double ratio_sum = 0.0;
    int ratios = 0;
    for (int skew = 0; skew < 3; ++skew) {
      const std::string base = "bench/BM_PairwiseDistances/kind:" +
                               std::to_string(kind) +
                               "/skew:" + std::to_string(skew);
      const double ref =
          reg.GetGauge(base + "/impl:0/real_time_ns").Value();
      const double packed =
          reg.GetGauge(base + "/impl:1/real_time_ns").Value();
      if (ref > 0.0 && packed > 0.0) {
        ratio_sum += ref / packed;
        ++ratios;
      }
    }
    if (ratios > 0) {
      const auto name =
          commsig::DistanceName(static_cast<commsig::DistanceKind>(kind));
      reg.GetGauge("distance/" + std::string(name) + "_speedup")
          .Set(ratio_sum / ratios);
    }
  }
  // Threshold join and distance rows: brute-force sweep time over index
  // time, per kind.
  for (const auto& [bench, prefix] :
       {std::pair{"BM_ThresholdJoin", "join_"},
        std::pair{"BM_DistanceRow", "row_"}}) {
    for (int kind = 0; kind < 4; ++kind) {
      const std::string base = std::string("bench/") + bench +
                               "/kind:" + std::to_string(kind);
      const double brute =
          reg.GetGauge(base + "/impl:0/real_time_ns").Value();
      const double indexed =
          reg.GetGauge(base + "/impl:1/real_time_ns").Value();
      if (brute > 0.0 && indexed > 0.0) {
        const auto name =
            commsig::DistanceName(static_cast<commsig::DistanceKind>(kind));
        reg.GetGauge("distance/" + std::string(prefix) + std::string(name) +
                     "_speedup")
            .Set(brute / indexed);
      }
    }
  }
  commsig::bench::WriteBenchSnapshot("distance");
  return 0;
}

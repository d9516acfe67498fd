// Microbenchmarks: signature computation cost per scheme, swept over graph
// size and signature length. Uses google-benchmark; run with --benchmark_*
// flags as usual.

#include <mutex>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bench/bench_registry.h"
#include "common/simd.h"
#include "core/rwr.h"
#include "core/rwr_batch.h"
#include "core/rwr_push.h"
#include "core/top_talkers.h"
#include "core/unexpected_talkers.h"
#include "graph/graph_builder.h"
#include "ref/rwr.h"

namespace commsig::bench {
namespace {

// Cache one dataset per external-population size. Mutex-guarded: benchmark
// registration is single-threaded, but --benchmark_enable_random_interleaving
// (and multi-threaded benchmarks generally) may run setup code concurrently,
// and unordered_map insertion is not. Value references stay stable across
// rehashes, so returning them from under the lock is safe.
const FlowDataset& DatasetFor(size_t externals) {
  static std::mutex mutex;
  static auto* cache = new std::unordered_map<size_t, FlowDataset>();
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache->find(externals);
  if (it == cache->end()) {
    FlowGeneratorConfig cfg;
    cfg.num_local_hosts = 200;
    cfg.num_external_hosts = externals;
    cfg.num_windows = 2;
    cfg.seed = 5;
    it = cache->emplace(externals, FlowTraceGenerator(cfg).Generate()).first;
  }
  return it->second;
}

// The shared shape of every single-source scheme bench: rotate Compute over
// the monitored local hosts, one signature per benchmark iteration.
void RunSingleSourceLoop(benchmark::State& state,
                         const SignatureScheme& scheme,
                         const FlowDataset& ds) {
  auto windows = ds.Windows();
  size_t host = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheme.Compute(windows[0],
                       ds.local_hosts[host % ds.local_hosts.size()]));
    ++host;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TopTalkers(benchmark::State& state) {
  TopTalkersScheme tt({.k = static_cast<size_t>(state.range(1))});
  RunSingleSourceLoop(state, tt, DatasetFor(state.range(0)));
}
BENCHMARK(BM_TopTalkers)
    ->ArgsProduct({{5000, 20000}, {5, 10, 20}})
    ->ArgNames({"externals", "k"});

void BM_UnexpectedTalkers(benchmark::State& state) {
  UnexpectedTalkersScheme ut({.k = 10}, UtWeighting::kInverseInDegree);
  RunSingleSourceLoop(state, ut, DatasetFor(state.range(0)));
}
BENCHMARK(BM_UnexpectedTalkers)
    ->Args({5000})
    ->Args({20000})
    ->ArgNames({"externals"});

void BM_RwrTruncated(benchmark::State& state) {
  RwrScheme rwr({.k = 10},
                {.reset = 0.1,
                 .max_hops = static_cast<size_t>(state.range(0))});
  RunSingleSourceLoop(state, rwr, DatasetFor(20000));
}
BENCHMARK(BM_RwrTruncated)->Arg(1)->Arg(3)->Arg(5)->Arg(7)->ArgNames({"h"});

// BM_RwrPush and BM_RwrUnbounded compare per source on this one window.
constexpr size_t kPushVsExactExternals = 20000;

void BM_RwrPush(benchmark::State& state) {
  // Local forward-push vs whole-graph exact iteration (BM_RwrUnbounded):
  // work scales with 1/(c·eps), not with |V|+|E|.
  double eps = 1.0;
  for (int i = 0; i < state.range(0); ++i) eps /= 10.0;
  RwrPushScheme push({.k = 10}, {.reset = 0.1, .epsilon = eps});
  RunSingleSourceLoop(state, push, DatasetFor(kPushVsExactExternals));
  state.SetLabel("eps=1e-" + std::to_string(state.range(0)));
}
BENCHMARK(BM_RwrPush)->Arg(3)->Arg(5)->Arg(7)->ArgNames({"neg_log_eps"});

void BM_RwrUnbounded(benchmark::State& state) {
  RwrScheme rwr({.k = 10}, {.reset = 0.1, .max_hops = 0});
  RunSingleSourceLoop(state, rwr, DatasetFor(kPushVsExactExternals));
}
BENCHMARK(BM_RwrUnbounded);

// Whole-population sweep (signatures for every local host) through the
// batched engine: one graph scan amortized over each 16-source window,
// frontier-sparse truncated hops. items/sec counts host signatures.
void BM_RwrBatch(benchmark::State& state) {
  const FlowDataset& ds = DatasetFor(state.range(0));
  auto windows = ds.Windows();
  RwrScheme rwr({.k = 10},
                {.reset = 0.1,
                 .max_hops = static_cast<size_t>(state.range(1))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rwr.ComputeAll(windows[0], ds.local_hosts));
  }
  state.SetItemsProcessed(state.iterations() * ds.local_hosts.size());
}
BENCHMARK(BM_RwrBatch)
    ->ArgsProduct({{5000, 20000}, {1, 3, 5, 7}})
    ->Args({5000, 0})  // unbounded walk, kept off the 20k graph for time
    ->ArgNames({"externals", "h"});

// The headline comparison, measured in one run: all-hosts RWR^3 signatures
// on the 20k-external window, per-source baseline (batched:0, the serial
// power iteration of the test oracle, ref::RwrSignature, looped over the
// hosts) vs the batched engine (batched:1). perf_schemes' main() derives
// the speedup gauge from these two rows.
void BM_RwrAllNodes(benchmark::State& state) {
  const FlowDataset& ds = DatasetFor(20000);
  auto windows = ds.Windows();
  const bool batched = state.range(0) == 1;
  const SchemeOptions options{.k = 10};
  const RwrOptions rwr_options{.reset = 0.1, .max_hops = 3};
  RwrScheme rwr(options, rwr_options);
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(rwr.ComputeAll(windows[0], ds.local_hosts));
    } else {
      std::vector<Signature> sigs;
      sigs.reserve(ds.local_hosts.size());
      for (NodeId v : ds.local_hosts) {
        sigs.push_back(ref::RwrSignature(options, rwr_options, windows[0], v));
      }
      benchmark::DoNotOptimize(sigs);
    }
  }
  state.SetItemsProcessed(state.iterations() * ds.local_hosts.size());
  state.SetLabel(batched ? "batched" : "per-source");
}
BENCHMARK(BM_RwrAllNodes)->Arg(0)->Arg(1)->ArgNames({"batched"});

// A window dense enough that the block power iteration's B-wide row
// kernels dominate the profile: every node carries ~64 out-edges and the
// occupancy block stays L1-resident, so each dense scan is edge-scatter
// (AxpyRow) work, not frontier bookkeeping or cache misses. The
// paper-shaped bipartite windows are too sparse to expose the kernels —
// a truncated RWR^h there measures the frontier machinery instead.
const CommGraph& SimdKernelGraph() {
  static auto* graph = new CommGraph([] {
    constexpr size_t kNodes = 128;
    constexpr size_t kDegree = 64;
    GraphBuilder builder(kNodes);
    uint64_t s = 0x9e3779b97f4a7c15ull;  // xorshift64, fixed seed
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (NodeId v = 0; v < kNodes; ++v) {
      for (size_t i = 0; i < kDegree; ++i) {
        const NodeId dst = static_cast<NodeId>(next() % kNodes);
        const double w = 1.0 + static_cast<double>(next() % 1000) / 100.0;
        builder.AddEdge(v, dst, w);
      }
    }
    return std::move(builder).Build();
  }());
  return *graph;
}

// The batched engine with its vectorized loop kernels toggled off (simd:0,
// honestly scalar — the reference loops carry a no-tree-vectorize
// attribute) vs on (simd:1), solving one wide (4×16-source) unbounded
// batch on the kernel-dominated window above — the wide block keeps the
// per-edge vector work large relative to the toggle-independent edge
// bookkeeping. Results are bit-identical either way, so the ratio
// isolates what the SIMD pass itself buys on the block power iteration;
// main() derives the rwr_batch/simd_speedup gauge from these rows. On
// -DCOMMSIG_SIMD=off builds both rows run scalar and the gauge sits at ~1
// (and is not guarded).
void BM_RwrBatchSimd(benchmark::State& state) {
  const CommGraph& g = SimdKernelGraph();
  const RwrOptions opts{.reset = 0.1,
                        .max_hops = 0,
                        .tolerance = 1e-8,
                        .traversal = TraversalMode::kDirected};
  static auto* cache = new TransitionCache(g, opts.traversal);
  const RwrBatchEngine engine(opts, *cache);
  std::vector<NodeId> sources(4 * RwrBatchEngine::kDefaultBatchWidth);
  for (size_t b = 0; b < sources.size(); ++b) {
    sources[b] = static_cast<NodeId>(b * 2);
  }
  simd::SetEnabled(state.range(0) == 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.SolveBatch(sources));
  }
  simd::SetEnabled(true);
  state.SetItemsProcessed(state.iterations() * sources.size());
  state.SetLabel(state.range(0) == 1 ? "simd" : "scalar");
}
BENCHMARK(BM_RwrBatchSimd)->Arg(0)->Arg(1)->ArgNames({"simd"});

}  // namespace
}  // namespace commsig::bench

int main(int argc, char** argv) {
  // Ops/sec lands in the metrics registry and the BENCH_*.json snapshots
  // (perf trajectory) instead of only the console table.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  commsig::bench::RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Derived gauge: the all-hosts sweep speedup measured within this run
  // (per-source baseline time / batched time), the number the batched
  // engine is accountable for across the bench trajectory.
  auto& reg = commsig::obs::MetricsRegistry::Global();
  const double serial =
      reg.GetGauge("bench/BM_RwrAllNodes/batched:0/real_time_ns").Value();
  const double batched =
      reg.GetGauge("bench/BM_RwrAllNodes/batched:1/real_time_ns").Value();
  if (serial > 0.0 && batched > 0.0) {
    reg.GetGauge("rwr_batch/all_nodes_speedup").Set(serial / batched);
  }

  // Same-engine scalar vs SIMD ratio (BM_RwrBatchSimd rows). Guarded only
  // on builds with an active backend: a scalar build legitimately measures
  // ~1 here, so the gauge is tagged with the backend for the guard baseline
  // to key on.
  const double scalar_t =
      reg.GetGauge("bench/BM_RwrBatchSimd/simd:0/real_time_ns").Value();
  const double simd_t =
      reg.GetGauge("bench/BM_RwrBatchSimd/simd:1/real_time_ns").Value();
  if (scalar_t > 0.0 && simd_t > 0.0 && commsig::simd::kHasIsa) {
    reg.GetGauge("rwr_batch/simd_speedup").Set(scalar_t / simd_t);
  }
  commsig::bench::WriteBenchSnapshot("schemes");
  commsig::bench::WriteBenchSnapshot("rwr_batch");
  return 0;
}

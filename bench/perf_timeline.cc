// Incremental sliding-window timeline vs per-window from-scratch
// recomputation, swept over the window overlap fraction. Emits the
// steady-state speedup per (scheme, overlap) as gauges
// `timeline/<scheme>/overlap<pct>_speedup` into BENCH_timeline.json —
// the numbers tools/bench_guard.py holds the incremental engine
// accountable for — with the nodes each timed pass recomputes as
// `timeline/<scheme>/overlap<pct>_dirty_count` and, for RWR, the power
// iterations it runs as `timeline/<scheme>/overlap<pct>_iterations_count`,
// and prints the sweep as a table. Next to the median pass times
// `_scratch_ns` and `_incremental_ns` it publishes `_delta_diff_ns`, the
// median time to build the GraphDelta of every window pair one
// incremental pass advances across (e2ebench's pipeline.delta_diff_us).
// The snapshot also records the host's core count as `host/nproc`.
//
// Each repeat times one scratch pass and one incremental pass back to
// back, alternating which goes first; a speedup is the median of the
// per-repeat ratios, and the published pass times are medians too. A
// ratio of two best-of-N timings taken one after the other swung with
// the host's load between the two loops (e.g. tt/overlap88 read
// 2.03–3.17× over five runs of one binary).
//
// Two workloads, one per scheme family, each in the regime its dirty rule
// actually exploits:
//
//  * "shared" — focal hosts talk to a small shared service population with
//    an always-on baseline session per (host, service, slot), so every
//    edge exists in every window (in-degree *sets* are stable) and a
//    window's baseline weight is slot-count * rate regardless of which
//    slots it covers. Only hosts whose burst crosses the slots entering /
//    leaving the window have a changed row. This is the TT/UT regime: the
//    one-hop dirty rules keep quiet hosts clean even though the
//    destination population is dense and shared.
//
//  * "clustered" — each focal host owns a private destination cluster and
//    emits only while bursting. Supports of distinct hosts are disjoint,
//    so a quiet host's RWR support never touches a changed transition row
//    and the drift estimate is exactly zero — the reuse path of the RWR
//    fallback ladder. Shared destinations would put every changed row in
//    every support and force cold solves, which is precisely what the
//    drift bound is for; the cluster workload isolates the reuse win.
//
// Both modes compute identical work per window (the equivalence suite
// enforces bit-identity for TT/UT and the drift epsilon for RWR); window
// construction is untimed and shared. Timing starts after the first
// window so the numbers are steady-state per-window costs, not diluted by
// the unavoidable full sweep that primes the engine.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/incremental.h"
#include "core/scheme.h"
#include "eval/timeline.h"
#include "graph/graph_delta.h"
#include "graph/windower.h"
#include "obs/metrics.h"

namespace commsig::bench {
namespace {

constexpr uint64_t kSlots = 64;
constexpr uint64_t kWindowLength = 16;
constexpr size_t kNumFocal = 256;

struct Workload {
  std::string name;
  std::vector<TraceEvent> events;
  size_t num_nodes = 0;
  std::vector<NodeId> focal;
};

/// Per-focal burst mask over the slot axis: rare bursts (geometric length)
/// so that between two overlapping windows most hosts' activity pattern is
/// unchanged — the sliding-window monitoring regime.
std::vector<std::vector<bool>> BurstMasks(double p_start, double p_end,
                                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<std::vector<bool>> masks(kNumFocal,
                                       std::vector<bool>(kSlots, false));
  for (auto& mask : masks) {
    bool bursting = false;
    for (uint64_t s = 0; s < kSlots; ++s) {
      if (!bursting && uniform(rng) < p_start) bursting = true;
      mask[s] = bursting;
      if (bursting && uniform(rng) < p_end) bursting = false;
    }
  }
  return masks;
}

Workload MakeSharedServicesWorkload() {
  constexpr size_t kServices = 512;
  constexpr size_t kDestsPerFocal = 20;
  Workload w;
  w.name = "shared";
  w.num_nodes = kNumFocal + kServices;
  std::mt19937_64 rng(0x717e1);
  std::vector<std::vector<NodeId>> dsts(kNumFocal);
  for (size_t f = 0; f < kNumFocal; ++f) {
    std::vector<bool> taken(kServices, false);
    while (dsts[f].size() < kDestsPerFocal) {
      size_t d = rng() % kServices;
      if (taken[d]) continue;
      taken[d] = true;
      dsts[f].push_back(static_cast<NodeId>(kNumFocal + d));
    }
    w.focal.push_back(static_cast<NodeId>(f));
  }
  auto masks = BurstMasks(0.004, 1.0 / 3.0, 0xb0057);
  for (uint64_t s = 0; s < kSlots; ++s) {
    for (size_t f = 0; f < kNumFocal; ++f) {
      // Always-on baseline: the edge set (and thus every in-degree) is
      // window-invariant, and each window's baseline weight sums the same
      // constant per covered slot.
      for (NodeId d : dsts[f]) {
        w.events.push_back({static_cast<NodeId>(f), d, s, 1.0});
      }
      if (masks[f][s]) {
        for (NodeId d : dsts[f]) {
          w.events.push_back({static_cast<NodeId>(f), d, s, 4.0});
        }
      }
    }
  }
  return w;
}

Workload MakeClusteredWorkload() {
  constexpr size_t kClusterSize = 12;
  Workload w;
  w.name = "clustered";
  w.num_nodes = kNumFocal + kNumFocal * kClusterSize;
  auto masks = BurstMasks(0.007, 1.0 / 3.0, 0xc1a57);
  for (size_t f = 0; f < kNumFocal; ++f) w.focal.push_back(f);
  for (uint64_t s = 0; s < kSlots; ++s) {
    for (size_t f = 0; f < kNumFocal; ++f) {
      if (!masks[f][s]) continue;
      for (size_t j = 0; j < kClusterSize; ++j) {
        NodeId d = static_cast<NodeId>(kNumFocal + f * kClusterSize + j);
        // Slot-dependent weights: a burst sliding across the window edge
        // changes the row it leaves behind, not just its presence.
        w.events.push_back(
            {static_cast<NodeId>(f), d, s, 1.0 + 0.1 * ((s * 31 + j) % 7)});
      }
    }
  }
  return w;
}

/// Entry-count checksum so the optimizer cannot elide a timed sweep.
size_t g_sink = 0;

double ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// One from-scratch pass: ComputeAll on every window after the first.
double ScratchPassNs(const SignatureScheme& scheme,
                     const std::vector<CommGraph>& windows,
                     const std::vector<NodeId>& focal) {
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t w = 1; w < windows.size(); ++w) {
    auto sigs = scheme.ComputeAll(windows[w], focal);
    for (const Signature& s : sigs) g_sink += s.size();
  }
  return ElapsedNs(t0);
}

/// The diffs one incremental pass builds: GraphDelta over every window
/// pair it advances across.
double DeltaDiffPassNs(const std::vector<CommGraph>& windows) {
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t w = 1; w < windows.size(); ++w) {
    const GraphDelta delta(windows[w - 1], windows[w]);
    g_sink += delta.changed_row_nodes().size();
  }
  return ElapsedNs(t0);
}

/// One incremental pass on a fresh engine, timed after its untimed priming
/// sweep over the first window. Adds the RWR power iterations of the timed
/// windows to `iterations`.
double IncrementalPassNs(const SignatureScheme& scheme,
                         const std::vector<CommGraph>& windows,
                         const std::vector<NodeId>& focal,
                         uint64_t& iterations) {
  obs::Counter& rwr_iterations =
      obs::MetricsRegistry::Global().GetCounter("rwr/iterations");
  IncrementalSignatureEngine engine(scheme, focal);
  engine.AdvanceBorrowed(windows[0]);
  const uint64_t before = rwr_iterations.Value();
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t w = 1; w < windows.size(); ++w) {
    const auto& sigs = engine.AdvanceBorrowed(windows[w]);
    for (const Signature& s : sigs) g_sink += s.size();
  }
  const double ns = ElapsedNs(t0);
  iterations += rwr_iterations.Value() - before;
  return ns;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Largest per-entry weight discrepancy between two aligned timelines
/// (node sets must also agree). Used to keep the bench honest: a speedup
/// from diverging results would be a bug, not a win.
double MaxDeviation(const std::vector<std::vector<Signature>>& a,
                    const std::vector<std::vector<Signature>>& b) {
  double max_dev = 0.0;
  for (size_t w = 0; w < a.size(); ++w) {
    for (size_t i = 0; i < a[w].size(); ++i) {
      if (a[w][i].size() != b[w][i].size()) return 1e300;
      for (size_t e = 0; e < a[w][i].size(); ++e) {
        if (a[w][i].entries()[e].node != b[w][i].entries()[e].node) {
          return 1e300;
        }
        max_dev = std::max(max_dev,
                           std::abs(a[w][i].entries()[e].weight -
                                    b[w][i].entries()[e].weight));
      }
    }
  }
  return max_dev;
}

/// `repeats` is the number of scratch/incremental pass pairs: high for the
/// cheap exact schemes (sub-ms loops, timer noise dominates a single pass),
/// low for the expensive RWR sweeps where one pass is tens of ms. The pass
/// that runs first alternates, so neither always inherits the other's
/// cache state or the same phase of the host's load.
void RunSweep(const Workload& wl, const std::string& spec,
              const std::string& key, double rwr_epsilon, int repeats) {
  SchemeOptions opts;
  opts.k = 10;
  auto scheme = MustCreateScheme(spec, opts);
  auto& reg = obs::MetricsRegistry::Global();
  for (uint64_t stride : {kWindowLength, kWindowLength / 2, kWindowLength / 4,
                          kWindowLength / 8}) {
    TraceWindower windower(wl.num_nodes, kWindowLength);
    std::vector<CommGraph> windows = windower.SplitSliding(wl.events, stride);
    const int pct = static_cast<int>(
        std::lround(100.0 * (1.0 - static_cast<double>(stride) /
                                       static_cast<double>(kWindowLength))));

    // Equivalence first (untimed): a fast-but-wrong timeline must fail the
    // bench, not publish a speedup.
    std::vector<std::vector<Signature>> scratch_tl;
    for (const CommGraph& g : windows) {
      scratch_tl.push_back(scheme->ComputeAll(g, wl.focal));
    }
    auto incr_tl = ComputeSignatureTimeline(*scheme, windows, wl.focal);
    const double dev = MaxDeviation(scratch_tl, incr_tl);
    if (dev > rwr_epsilon) {
      std::fprintf(stderr,
                   "FAIL %s/%s overlap=%d%%: incremental deviates by %.3g "
                   "(allowed %.3g)\n",
                   wl.name.c_str(), key.c_str(), pct, dev, rwr_epsilon);
      std::exit(1);
    }

    const uint64_t dirty_before =
        reg.GetCounter("timeline/nodes_dirty").Value();
    const uint64_t reused_before =
        reg.GetCounter("timeline/nodes_reused").Value();
    std::vector<double> scratch_runs, incr_runs, ratios;
    uint64_t iterations = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      double scratch = 0.0, incr = 0.0;
      if (rep % 2 == 0) {
        scratch = ScratchPassNs(*scheme, windows, wl.focal);
        incr = IncrementalPassNs(*scheme, windows, wl.focal, iterations);
      } else {
        incr = IncrementalPassNs(*scheme, windows, wl.focal, iterations);
        scratch = ScratchPassNs(*scheme, windows, wl.focal);
      }
      scratch_runs.push_back(scratch);
      incr_runs.push_back(incr);
      ratios.push_back(incr > 0.0 ? scratch / incr : 0.0);
    }
    // Timed apart from the pairs above, so the ratios stay two-pass.
    std::vector<double> diff_runs;
    for (int rep = 0; rep < repeats; ++rep) {
      diff_runs.push_back(DeltaDiffPassNs(windows));
    }
    const double scratch_ns = Median(scratch_runs);
    const double incr_ns = Median(incr_runs);
    const double diff_ns = Median(diff_runs);
    const double speedup = Median(ratios);
    // Each repeat's untimed priming sweep marks every focal node dirty;
    // exclude those so the printed fraction is the steady-state dirty rate
    // the timed transitions actually saw.
    const uint64_t dirty = reg.GetCounter("timeline/nodes_dirty").Value() -
                           dirty_before -
                           static_cast<uint64_t>(repeats) * wl.focal.size();
    const uint64_t reused =
        reg.GetCounter("timeline/nodes_reused").Value() - reused_before;
    const double dirty_frac =
        dirty + reused > 0
            ? static_cast<double>(dirty) / static_cast<double>(dirty + reused)
            : 1.0;

    const std::string prefix =
        "timeline/" + key + "/overlap" + std::to_string(pct);
    reg.GetGauge(prefix + "_speedup").Set(speedup);
    reg.GetGauge(prefix + "_scratch_ns").Set(scratch_ns);
    reg.GetGauge(prefix + "_incremental_ns").Set(incr_ns);
    reg.GetGauge(prefix + "_delta_diff_ns").Set(diff_ns);
    // Nodes recomputed per timed pass: deterministic at this seed, so
    // bench_guard holds it as an exact ceiling next to the noisy ratio.
    reg.GetGauge(prefix + "_dirty_count")
        .Set(static_cast<double>(dirty) / static_cast<double>(repeats));
    if (key.starts_with("rwr")) {
      reg.GetGauge(prefix + "_iterations_count")
          .Set(static_cast<double>(iterations) /
               static_cast<double>(repeats));
    }
    PrintRow({wl.name, key, Fmt(pct, "%.0f") + "%",
              Fmt(static_cast<double>(windows.size()), "%.0f"),
              Fmt(100.0 * dirty_frac, "%.1f") + "%",
              Fmt(scratch_ns / 1e6, "%.3f"), Fmt(incr_ns / 1e6, "%.3f"),
              Fmt(diff_ns / 1e6, "%.3f"),
              Fmt(speedup, "%.2f") + "x", Fmt(dev, "%.2g")},
             12);
  }
}

}  // namespace
}  // namespace commsig::bench

int main() {
  using namespace commsig::bench;
  commsig::obs::PreRegisterCoreMetrics();
  commsig::obs::MetricsRegistry::Global()
      .GetGauge("host/nproc")
      .Set(static_cast<double>(std::thread::hardware_concurrency()));

  PrintHeader("incremental timeline vs from-scratch (steady-state)");
  PrintRow({"workload", "scheme", "overlap", "windows", "dirty", "scratch_ms",
            "incr_ms", "diff_ms", "speedup", "max_dev"},
           12);

  // TT/UT: one-hop dirty rules on the shared-service workload. Exact
  // schemes, so any deviation at all fails the bench.
  Workload shared = MakeSharedServicesWorkload();
  RunSweep(shared, "tt", "tt", 0.0, 15);
  RunSweep(shared, "ut", "ut", 0.0, 15);

  // RWR reuse/warm/cold ladder on the clustered workload. The documented
  // bound: accumulated drift estimate <= incremental_max_drift (1e-6)
  // plus solver tolerance on either side.
  Workload clustered = MakeClusteredWorkload();
  RunSweep(clustered, "rwr(c=0.1,h=3)", "rwr_h3", 1e-5, 7);
  RunSweep(clustered, "rwr(c=0.1)", "rwr", 1e-5, 3);

  if (g_sink == 0) std::fprintf(stderr, "(empty timelines)\n");
  WriteBenchSnapshot("timeline");
  return 0;
}

// Section VI extension: scalable signature comparison with MinHash LSH.
// Indexes every focal host's TT signature, then compares LSH candidate
// generation against the exact similar pairs, which the signature index's
// threshold join finds (the join multiusage detection runs): recall of
// true similar pairs, candidate-set size, and wall-clock time, sweeping
// the band configuration.

#include <chrono>
#include <set>

#include "bench/bench_common.h"
#include "core/distance.h"
#include "core/signature_index.h"
#include "core/top_talkers.h"
#include "lsh/lsh_index.h"

namespace commsig::bench {
namespace {

void Main() {
  std::printf("Section VI: LSH-accelerated signature comparison\n");
  FlowDataset flows = MakeFlowDataset();
  auto windows = flows.Windows();
  TopTalkersScheme tt({.k = 10});
  auto sigs = tt.ComputeAll(windows[0], flows.local_hosts);
  const size_t n = sigs.size();

  // Exact ground truth: pairs with Jaccard similarity >= 0.5, i.e.
  // Dist_Jac <= 0.5.
  auto start = std::chrono::steady_clock::now();
  std::set<std::pair<NodeId, NodeId>> truth;
  size_t scored = 0;
  for (const SignatureIndex::Pair& p :
       SignatureIndex(sigs).ThresholdJoin(
           SignatureDistance(DistanceKind::kJaccard), 0.5, &scored)) {
    truth.emplace(flows.local_hosts[p.i], flows.local_hosts[p.j]);
  }
  double join_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  std::printf("hosts: %zu, true similar pairs (jac >= 0.5): %zu, "
              "exact join: %.4fs (%zu of %zu pairs scored)\n",
              n, truth.size(), join_seconds, scored, n * (n - 1) / 2);

  PrintHeader("LSH banding sweep");
  PrintRow({"bands x rows", "recall", "candidates", "index+query_s"});
  struct Config {
    size_t bands, rows;
  };
  for (Config cfg : {Config{16, 8}, Config{32, 4}, Config{64, 2}}) {
    auto t0 = std::chrono::steady_clock::now();
    LshIndex index({.bands = cfg.bands, .rows_per_band = cfg.rows});
    for (size_t i = 0; i < n; ++i) {
      index.Insert(flows.local_hosts[i], sigs[i]);
    }
    auto pairs = index.SimilarPairs(0.0);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    std::set<std::pair<NodeId, NodeId>> candidates;
    for (const auto& p : pairs) candidates.emplace(p.a, p.b);
    size_t hit = 0;
    for (const auto& t : truth) hit += candidates.contains(t) ? 1 : 0;
    double recall =
        truth.empty() ? 1.0 : static_cast<double>(hit) / truth.size();
    PrintRow({std::to_string(cfg.bands) + "x" + std::to_string(cfg.rows),
              Fmt(recall), std::to_string(candidates.size()),
              Fmt(seconds, "%.4f")});
  }
}

}  // namespace
}  // namespace commsig::bench

int main() {
  commsig::bench::Main();
  return 0;
}

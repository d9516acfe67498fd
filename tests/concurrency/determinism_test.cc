// Determinism-under-threads suite: the parallel entry points must produce
// bit-identical output regardless of worker count or scheduling. This is the
// precondition for every robustness/persistence number in the paper's
// Definition 2 metrics — a perturbation experiment is only meaningful if the
// unperturbed computation is a pure function of its inputs.

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/flow_generator.h"

namespace commsig {
namespace {

FlowDataset Flows(size_t local_hosts, size_t external_hosts, size_t windows,
                  uint64_t seed) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = local_hosts;
  cfg.num_external_hosts = external_hosts;
  cfg.num_windows = windows;
  cfg.seed = seed;
  return FlowTraceGenerator(cfg).Generate();
}

FlowDataset StressFlows() { return Flows(48, 700, 2, 97); }

TEST(DeterminismTest, ComputeAllParallelBitIdenticalAcrossWorkerCounts) {
  // 48 hosts are exactly three batch-width chunks, 37 hosts end in a
  // partial chunk, and an empty node list has no chunk at all.
  const FlowDataset full = StressFlows();
  const FlowDataset partial = Flows(37, 400, 1, 9);
  const CommGraph full_g = full.Windows()[0];
  const CommGraph partial_g = partial.Windows()[0];
  const struct {
    const char* name;
    const CommGraph& g;
    std::span<const NodeId> nodes;
  } inputs[] = {{"48 hosts", full_g, full.local_hosts},
                {"37 hosts", partial_g, partial.local_hosts},
                {"no hosts", full_g, {}}};
  SchemeOptions opts{.k = 10, .restrict_to_opposite_partition = true};
  for (const auto& input : inputs) {
    for (const char* spec : {"tt", "ut", "rwr(c=0.1,h=3)", "rwr(c=0.15)",
                             "rwr-push(c=0.1,eps=1e-6)"}) {
      auto scheme = CreateScheme(spec, opts);
      ASSERT_TRUE(scheme.ok()) << spec;
      std::vector<Signature> reference =
          (*scheme)->ComputeAll(input.g, input.nodes);
      ASSERT_EQ(reference.size(), input.nodes.size()) << spec;
      for (size_t workers : {1u, 2u, 8u}) {
        std::vector<Signature> got =
            ComputeAllParallel(**scheme, input.g, input.nodes, workers);
        ASSERT_EQ(got.size(), reference.size()) << spec;
        for (size_t i = 0; i < got.size(); ++i) {
          // Signature equality is exact (entry-wise id + double weight), so
          // a scheduling-dependent summation order would fail here.
          EXPECT_EQ(got[i], reference[i])
              << input.name << ", " << spec << " node " << i << " with "
              << workers << " workers";
        }
      }
    }
  }
}

TEST(DeterminismTest, ComputeAllParallelStableAcrossRepeatedRuns) {
  // Same inputs, many runs: contention patterns differ run to run, results
  // must not.
  FlowDataset ds = StressFlows();
  CommGraph g = ds.Windows()[1];
  auto scheme = *CreateScheme(
      "rwr(c=0.1,h=3)", {.k = 10, .restrict_to_opposite_partition = true});
  std::vector<Signature> first =
      ComputeAllParallel(*scheme, g, ds.local_hosts, 8);
  for (int run = 0; run < 5; ++run) {
    std::vector<Signature> again =
        ComputeAllParallel(*scheme, g, ds.local_hosts, 8);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i], first[i]) << "run " << run << " node " << i;
    }
  }
}

}  // namespace
}  // namespace commsig

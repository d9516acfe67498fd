// Determinism-under-threads suite: the parallel entry points must produce
// bit-identical output regardless of worker count or scheduling. This is the
// precondition for every robustness/persistence number in the paper's
// Definition 2 metrics — a perturbation experiment is only meaningful if the
// unperturbed computation is a pure function of its inputs.

#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "data/flow_generator.h"

namespace commsig {
namespace {

FlowDataset StressFlows() {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 48;
  cfg.num_external_hosts = 700;
  cfg.num_windows = 2;
  cfg.seed = 97;
  return FlowTraceGenerator(cfg).Generate();
}

TEST(DeterminismTest, ComputeAllParallelBitIdenticalAcrossWorkerCounts) {
  FlowDataset ds = StressFlows();
  CommGraph g = ds.Windows()[0];
  SchemeOptions opts{.k = 10, .restrict_to_opposite_partition = true};
  for (const char* spec : {"tt", "ut", "rwr(c=0.1,h=3)", "rwr(c=0.15)",
                           "rwr-push(c=0.1,eps=1e-6)"}) {
    auto scheme = CreateScheme(spec, opts);
    ASSERT_TRUE(scheme.ok()) << spec;
    std::vector<Signature> reference =
        (*scheme)->ComputeAll(g, ds.local_hosts);
    for (size_t workers : {1u, 2u, 8u}) {
      ThreadPool pool(workers);
      std::vector<Signature> got =
          ComputeAllParallel(**scheme, g, ds.local_hosts, pool);
      ASSERT_EQ(got.size(), reference.size()) << spec;
      for (size_t i = 0; i < got.size(); ++i) {
        // Signature equality is exact (entry-wise id + double weight), so a
        // scheduling-dependent summation order would fail here.
        EXPECT_EQ(got[i], reference[i])
            << spec << " node " << i << " with " << workers << " workers";
      }
    }
  }
}

TEST(DeterminismTest, ComputeAllParallelStableAcrossRepeatedRuns) {
  // Same pool, same inputs, many runs: contention patterns differ run to
  // run, results must not.
  FlowDataset ds = StressFlows();
  CommGraph g = ds.Windows()[1];
  auto scheme = *CreateScheme(
      "rwr(c=0.1,h=3)", {.k = 10, .restrict_to_opposite_partition = true});
  ThreadPool pool(8);
  std::vector<Signature> first =
      ComputeAllParallel(*scheme, g, ds.local_hosts, pool);
  for (int run = 0; run < 5; ++run) {
    std::vector<Signature> again =
        ComputeAllParallel(*scheme, g, ds.local_hosts, pool);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i], first[i]) << "run " << run << " node " << i;
    }
  }
}

}  // namespace
}  // namespace commsig

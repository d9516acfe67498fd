#include "core/parallel.h"

#include <gtest/gtest.h>

#include "data/flow_generator.h"

namespace commsig {
namespace {

FlowDataset SmallFlows() {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 40;
  cfg.num_external_hosts = 600;
  cfg.num_windows = 2;
  cfg.seed = 33;
  return FlowTraceGenerator(cfg).Generate();
}

TEST(ComputeAllParallelTest, MatchesSerialForEveryScheme) {
  FlowDataset ds = SmallFlows();
  CommGraph g = ds.Windows()[0];
  ThreadPool pool(4);
  SchemeOptions opts{.k = 10, .restrict_to_opposite_partition = true};
  for (const char* spec :
       {"tt", "ut", "rwr(c=0.1,h=3)", "rwr-push(c=0.1,eps=1e-6)"}) {
    auto scheme = CreateScheme(spec, opts);
    ASSERT_TRUE(scheme.ok());
    auto serial = (*scheme)->ComputeAll(g, ds.local_hosts);
    auto parallel = ComputeAllParallel(**scheme, g, ds.local_hosts, pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << spec << " node " << i;
    }
  }
}

TEST(ComputeAllParallelTest, EmptyNodeList) {
  FlowDataset ds = SmallFlows();
  CommGraph g = ds.Windows()[0];
  ThreadPool pool(2);
  auto scheme = *CreateScheme("tt", {.k = 5});
  EXPECT_TRUE(ComputeAllParallel(*scheme, g, {}, pool).empty());
}

}  // namespace
}  // namespace commsig

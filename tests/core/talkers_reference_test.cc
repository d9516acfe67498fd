// TT, UT and UT-TF-IDF against the dense Definition-1 model of
// tests/ref/talkers.h: every signature of every node must match the model
// bit for bit (ids, and weights compared with memcmp), on seeded random
// graphs and a flow window, with and without the opposite-partition filter.

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/scheme.h"
#include "data/flow_generator.h"
#include "graph/graph_builder.h"
#include "ref/talkers.h"

namespace commsig {
namespace {

struct SchemeCase {
  const char* spec;
  ref::Talkers model;
};

constexpr SchemeCase kSchemes[] = {
    {"tt", ref::Talkers::kTopTalkers},
    {"ut", ref::Talkers::kUnexpected},
    {"ut-tfidf", ref::Talkers::kUnexpectedTfIdf},
};

bool SameEntries(std::span<const Signature::Entry> got,
                 const std::vector<Signature::Entry>& want) {
  if (got.size() != want.size()) return false;
  for (size_t e = 0; e < got.size(); ++e) {
    if (got[e].node != want[e].node ||
        std::memcmp(&got[e].weight, &want[e].weight, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Checks every node's signature under every scheme, k and filter setting.
void ExpectMatchesModel(const CommGraph& g, const std::string& name) {
  const ref::DenseVolumes volumes(g);
  std::vector<NodeId> nodes(g.NumNodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  for (const SchemeCase& sc : kSchemes) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
      for (bool opposite : {false, true}) {
        const SchemeOptions opts{.k = k,
                                 .restrict_to_opposite_partition = opposite};
        const std::vector<Signature> sigs =
            (*CreateScheme(sc.spec, opts))->ComputeAll(g, nodes);
        for (NodeId v : nodes) {
          ASSERT_TRUE(SameEntries(
              sigs[v].entries(),
              ref::TalkerSignature(volumes, g.bipartite(), v, sc.model, k,
                                   opposite)))
              << name << " " << sc.spec << " k=" << k
              << " opposite=" << opposite << " node " << v;
        }
      }
    }
  }
}

TEST(TalkersReferenceTest, RandomGraphsMatchDenseModel) {
  // Small graphs with repeated observations (so edge volumes are sums),
  // self loops, weights spanning six decades, hubs whose in-degree reaches
  // |V| (TF-IDF weight 0, dropped), ties in volume, and a bipartite flag
  // on every other graph.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const size_t n = 4 + rng.UniformInt(37);
    GraphBuilder b(n);
    if (seed % 2 == 0) b.SetBipartiteLeftSize(static_cast<NodeId>(n / 3 + 1));
    const size_t events = rng.UniformInt(6 * n);
    for (size_t e = 0; e < events; ++e) {
      const NodeId src = static_cast<NodeId>(rng.UniformInt(n));
      const NodeId dst = static_cast<NodeId>(rng.UniformInt(n));
      const double w = rng.Bernoulli(0.3)
                           ? static_cast<double>(1 + rng.UniformInt(3))
                           : std::pow(10.0, 6.0 * rng.UniformDouble() - 3.0);
      b.AddEdge(src, dst, w);
    }
    if (seed % 5 == 0) {
      for (NodeId v = 0; v < n; ++v) b.AddEdge(v, 0, 1.0);  // |I(0)| = |V|
    }
    ExpectMatchesModel(std::move(b).Build(), "seed " + std::to_string(seed));
  }
}

TEST(TalkersReferenceTest, FlowWindowMatchesDenseModel) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 60;
  cfg.num_external_hosts = 600;
  cfg.num_windows = 1;
  cfg.seed = 11;
  const FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  ExpectMatchesModel(ds.Windows()[0], "flow window");
}

}  // namespace
}  // namespace commsig

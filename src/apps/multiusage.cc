#include "apps/multiusage.h"

#include <algorithm>
#include <cassert>

#include "core/signature_index.h"

namespace commsig {

std::vector<MultiusagePair> MultiusageDetector::Detect(
    std::span<const NodeId> nodes, std::span<const Signature> sigs) const {
  assert(nodes.size() == sigs.size());
  std::vector<MultiusagePair> pairs;
  for (const SignatureIndex::Pair& p :
       SignatureIndex(sigs).ThresholdJoin(dist_, options_.threshold)) {
    pairs.push_back({nodes[p.i], nodes[p.j], p.distance});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const MultiusagePair& x, const MultiusagePair& y) {
              if (x.distance != y.distance) return x.distance < y.distance;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  if (options_.max_pairs > 0 && pairs.size() > options_.max_pairs) {
    pairs.resize(options_.max_pairs);
  }
  return pairs;
}

}  // namespace commsig

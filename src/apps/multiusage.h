#ifndef COMMSIG_APPS_MULTIUSAGE_H_
#define COMMSIG_APPS_MULTIUSAGE_H_

#include <span>
#include <vector>

#include "common/interner.h"
#include "core/distance.h"
#include "core/signature.h"

namespace commsig {

/// A candidate multiusage pair: two labels whose signatures in the same
/// window are unusually similar, suggesting one individual behind both.
struct MultiusagePair {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double distance = 1.0;
};

/// Multiusage ("anti-aliasing") detection, Section II-D / V: within one
/// time window, compute Dist(σ_t(v), σ_t(u)) for focal pairs and report
/// those with high similarity (low distance). Per Table I this task leans
/// on uniqueness + robustness, which is why TT is the scheme of choice.
class MultiusageDetector {
 public:
  struct Options {
    /// Report pairs with distance <= threshold.
    double threshold = 0.5;
    /// Cap on reported pairs (0 = no cap). Pairs are reported most-similar
    /// first, so the cap keeps the strongest evidence.
    size_t max_pairs = 0;
  };

  explicit MultiusageDetector(SignatureDistance dist)
      : MultiusageDetector(dist, Options()) {}
  MultiusageDetector(SignatureDistance dist, Options options)
      : dist_(dist), options_(options) {}

  /// `nodes[i]` is the label whose signature is `sigs[i]`. Exact: the
  /// threshold join of core/signature_index.h scores only the pairs that
  /// can sit within the threshold, and pairs come out as (nodes[i],
  /// nodes[j]) with i < j, sorted by (distance, a, b), then capped.
  std::vector<MultiusagePair> Detect(std::span<const NodeId> nodes,
                                     std::span<const Signature> sigs) const;

 private:
  SignatureDistance dist_;
  Options options_;
};

}  // namespace commsig

#endif  // COMMSIG_APPS_MULTIUSAGE_H_

#ifndef COMMSIG_APPS_MASQUERADE_DETECTOR_H_
#define COMMSIG_APPS_MASQUERADE_DETECTOR_H_

#include <span>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "core/distance.h"
#include "core/signature.h"
#include "eval/masquerade_sim.h"

namespace commsig {

/// Output of the label-masquerading detector.
struct MasqueradeDetection {
  /// M: focal nodes classified "not a masquerader".
  std::vector<NodeId> non_suspects;
  /// O_P: detected (v, u) pairs — v in window t is believed to reappear
  /// under label u in window t+1.
  std::vector<std::pair<NodeId, NodeId>> detected;
  /// The persistence threshold δ actually used.
  double delta = 0.0;
};

/// Label-masquerading detection — the paper's Algorithm 1.
///
/// Inputs are the focal nodes with their signatures in two consecutive
/// windows (index-aligned). A node v whose self-persistence
/// A[v,v] = 1 − Dist(σ_t(v), σ_{t+1}(v)) exceeds δ is cleared; otherwise v
/// is matched against every u: if some u ≠ v ranks among v's top-ℓ by cross
/// persistence A[v,u] and u itself also looks non-persistent (A[u,u] ≤ δ),
/// the pair (v, u) is reported. The ranking runs the kernel only on the u
/// whose σ_{t+1}(u) shares a member with σ_t(v) (core/signature_index.h);
/// every other u has A[v,u] = 0 and ranks by ascending index among those.
///
/// δ defaults to the paper's choice: the mean self-persistence divided by
/// `delta_divisor` (the paper's c, evaluated at 3, 5, 7).
class MasqueradeDetector {
 public:
  struct Options {
    /// ℓ: how deep in v's cross-persistence ranking a partner may sit.
    size_t top_ell = 1;
    /// c: δ = mean self-persistence / c. Ignored if `fixed_delta` >= 0.
    double delta_divisor = 5.0;
    /// If >= 0, use this δ directly instead of deriving it.
    double fixed_delta = -1.0;
  };

  explicit MasqueradeDetector(SignatureDistance dist)
      : MasqueradeDetector(dist, Options()) {}
  MasqueradeDetector(SignatureDistance dist, Options options)
      : dist_(dist), options_(options) {}

  MasqueradeDetection Detect(std::span<const NodeId> nodes,
                             std::span<const Signature> sigs_t,
                             std::span<const Signature> sigs_t1) const;

 private:
  SignatureDistance dist_;
  Options options_;
};

/// The paper's accuracy criterion:
///   ( |M ∩ (V − P)| + |O_P ∩ E_P| ) / |V|
/// where V is the focal node set, P the truly perturbed labels and E_P the
/// true mapping. Correct classifications are non-suspects that really were
/// untouched, plus detected pairs matching the plan exactly.
double MasqueradeAccuracy(const MasqueradeDetection& detection,
                          const MasqueradePlan& plan,
                          std::span<const NodeId> focal_nodes);

}  // namespace commsig

#endif  // COMMSIG_APPS_MASQUERADE_DETECTOR_H_

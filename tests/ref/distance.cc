#include "ref/distance.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace commsig::ref {

double Distance(DistanceKind kind, const Signature& a, const Signature& b) {
  COMMSIG_COUNTER_ADD("distance/evaluations", 1);
  const auto ea = a.entries();
  const auto eb = b.entries();
  if (ea.empty() && eb.empty()) return 0.0;
  if (ea.empty() || eb.empty()) return 1.0;

  // Single merge over the id-sorted entries accumulates every statistic any
  // of the distances needs.
  size_t inter_count = 0;
  size_t union_count = 0;
  double sum_both_inter = 0.0;  // Σ_{∩} (w1 + w2)
  double sum_all = 0.0;         // Σ_{∪} (w1 + w2), missing weight = 0
  double sum_min_inter = 0.0;   // Σ_{∩} min
  double sum_geo_inter = 0.0;   // Σ_{∩} sqrt(w1·w2)
  double sum_max_union = 0.0;   // Σ_{∪} max (exclusive j contributes w)
  double dot = 0.0;             // Σ_{∩} w1·w2
  double norm1 = 0.0, norm2 = 0.0;  // Σ w², per signature

  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    ++union_count;
    if (j >= eb.size() || (i < ea.size() && ea[i].node < eb[j].node)) {
      sum_all += ea[i].weight;
      sum_max_union += ea[i].weight;
      norm1 += ea[i].weight * ea[i].weight;
      ++i;
    } else if (i >= ea.size() || eb[j].node < ea[i].node) {
      sum_all += eb[j].weight;
      sum_max_union += eb[j].weight;
      norm2 += eb[j].weight * eb[j].weight;
      ++j;
    } else {
      const double w1 = ea[i].weight;
      const double w2 = eb[j].weight;
      ++inter_count;
      sum_both_inter += w1 + w2;
      sum_all += w1 + w2;
      sum_min_inter += std::min(w1, w2);
      sum_geo_inter += std::sqrt(w1 * w2);
      sum_max_union += std::max(w1, w2);
      dot += w1 * w2;
      norm1 += w1 * w1;
      norm2 += w2 * w2;
      ++i;
      ++j;
    }
  }

  double similarity = 0.0;
  switch (kind) {
    case DistanceKind::kJaccard:
      similarity = static_cast<double>(inter_count) /
                   static_cast<double>(union_count);
      break;
    case DistanceKind::kDice:
      similarity = sum_both_inter / sum_all;
      break;
    case DistanceKind::kScaledDice:
      similarity = sum_min_inter / sum_max_union;
      break;
    case DistanceKind::kScaledHellinger:
      similarity = sum_geo_inter / sum_max_union;
      break;
    case DistanceKind::kCosine:
      similarity = dot / std::sqrt(norm1 * norm2);
      break;
    case DistanceKind::kOverlap:
      similarity = static_cast<double>(inter_count) /
                   static_cast<double>(std::min(ea.size(), eb.size()));
      break;
  }
  // Clamp against floating-point drift so callers can rely on [0, 1].
  return std::clamp(1.0 - similarity, 0.0, 1.0);
}

}  // namespace commsig::ref

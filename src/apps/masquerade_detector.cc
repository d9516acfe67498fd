#include "apps/masquerade_detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_set>

#include "core/signature_index.h"

namespace commsig {

namespace {

/// Appends (0.0, u) for the first `limit` indices u < n, ascending, that
/// are neither v nor in `near` (ascending).
void AppendZeroRanks(std::span<const uint32_t> near, size_t v, size_t n,
                     size_t limit,
                     std::vector<std::pair<double, size_t>>& ranked) {
  size_t c = 0;
  for (size_t u = 0; u < n && limit > 0; ++u) {
    if (c < near.size() && near[c] == u) {
      ++c;
    } else if (u != v) {
      ranked.emplace_back(0.0, u);
      --limit;
    }
  }
}

}  // namespace

MasqueradeDetection MasqueradeDetector::Detect(
    std::span<const NodeId> nodes, std::span<const Signature> sigs_t,
    std::span<const Signature> sigs_t1) const {
  assert(nodes.size() == sigs_t.size());
  assert(nodes.size() == sigs_t1.size());
  const size_t n = nodes.size();
  MasqueradeDetection out;

  // Self-persistence A[v,v] for every focal node, and δ.
  std::vector<double> self_persistence(n);
  double sum = 0.0;
  for (size_t v = 0; v < n; ++v) {
    self_persistence[v] = 1.0 - dist_(sigs_t[v], sigs_t1[v]);
    sum += self_persistence[v];
  }
  out.delta = options_.fixed_delta >= 0.0
                  ? options_.fixed_delta
                  : sum / (options_.delta_divisor * static_cast<double>(n));

  std::optional<SignatureIndex> index;  // built at the first suspect
  std::vector<uint32_t> near;
  std::vector<std::pair<double, size_t>> ranked;  // (A[v,u], u index)
  for (size_t v = 0; v < n; ++v) {
    if (self_persistence[v] > out.delta) {
      out.non_suspects.push_back(nodes[v]);  // Step 3-4
      continue;
    }
    // Step 6: cross persistences A[v,u] = 1 − Dist(σ_t(v), σ_{t+1}(u)).
    if (!index) index.emplace(sigs_t1);
    index->Candidates(sigs_t[v], 0, near);
    ranked.clear();
    bool nan = false;
    for (uint32_t u : near) {
      if (u == v) continue;
      ranked.emplace_back(1.0 - dist_(sigs_t[v], sigs_t1[u]), u);
      nan = nan || std::isnan(ranked.back().first);
    }
    // Every other u is at Dist 1.0, so A[v,u] = 0, and among equal A the
    // lower index ranks first: only the ℓ lowest such u can reach the top
    // ℓ. A NaN breaks that order, so such a row ranks every u in index
    // order, exactly as a full sweep would.
    const size_t ell = std::min(options_.top_ell, n - 1);
    AppendZeroRanks(near, v, n, nan ? n : ell, ranked);
    if (nan) {
      std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        return a.second < b.second;
      });
    }
    std::partial_sort(ranked.begin(), ranked.begin() + ell, ranked.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    // Step 7: the best-ranked u within the top-ℓ that is itself
    // non-persistent (its label changed hands too).
    bool found = false;
    for (size_t r = 0; r < ell; ++r) {
      size_t u = ranked[r].second;
      if (self_persistence[u] <= out.delta) {
        out.detected.emplace_back(nodes[v], nodes[u]);
        found = true;
        break;
      }
    }
    if (!found) out.non_suspects.push_back(nodes[v]);  // Step 9
  }
  return out;
}

double MasqueradeAccuracy(const MasqueradeDetection& detection,
                          const MasqueradePlan& plan,
                          std::span<const NodeId> focal_nodes) {
  if (focal_nodes.empty()) return 0.0;
  std::unordered_set<NodeId> perturbed;
  for (const auto& [v, u] : plan.mapping) perturbed.insert(v);

  size_t correct = 0;
  for (NodeId v : detection.non_suspects) {
    if (!perturbed.contains(v)) ++correct;  // |M ∩ (V − P)|
  }
  for (const auto& [v, u] : detection.detected) {
    if (plan.Contains(v, u)) ++correct;  // |O_P ∩ E_P|
  }
  return static_cast<double>(correct) /
         static_cast<double>(focal_nodes.size());
}

}  // namespace commsig

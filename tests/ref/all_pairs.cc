#include "ref/all_pairs.h"

#include <algorithm>
#include <cassert>

namespace commsig::ref {

std::vector<SignatureIndex::Pair> ThresholdJoin(
    std::span<const Signature> sigs, SignatureDistance dist, double t) {
  std::vector<SignatureIndex::Pair> pairs;
  for (size_t i = 0; i < sigs.size(); ++i) {
    for (size_t j = i + 1; j < sigs.size(); ++j) {
      const double d = dist(sigs[i], sigs[j]);
      if (d <= t) {
        pairs.push_back(
            {static_cast<uint32_t>(i), static_cast<uint32_t>(j), d});
      }
    }
  }
  return pairs;
}

std::vector<double> DistanceRow(const Signature& probe,
                                std::span<const Signature> sigs,
                                SignatureDistance dist, size_t first) {
  std::vector<double> row;
  for (size_t u = first; u < sigs.size(); ++u) {
    row.push_back(dist(probe, sigs[u]));
  }
  return row;
}

std::vector<MultiusagePair> MultiusagePairs(
    std::span<const NodeId> nodes, std::span<const Signature> sigs,
    SignatureDistance dist, MultiusageDetector::Options options) {
  assert(nodes.size() == sigs.size());
  std::vector<MultiusagePair> pairs;
  for (const SignatureIndex::Pair& p :
       ThresholdJoin(sigs, dist, options.threshold)) {
    pairs.push_back({nodes[p.i], nodes[p.j], p.distance});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const MultiusagePair& x, const MultiusagePair& y) {
              if (x.distance != y.distance) return x.distance < y.distance;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  if (options.max_pairs > 0 && pairs.size() > options.max_pairs) {
    pairs.resize(options.max_pairs);
  }
  return pairs;
}

std::vector<double> UniquenessAllPairs(std::span<const Signature> sigs,
                                       SignatureDistance dist) {
  std::vector<double> values;
  for (size_t v = 0; v < sigs.size(); ++v) {
    for (size_t u = v + 1; u < sigs.size(); ++u) {
      values.push_back(dist(sigs[v], sigs[u]));
    }
  }
  return values;
}

MasqueradeDetection MasqueradeDetect(std::span<const NodeId> nodes,
                                     std::span<const Signature> sigs_t,
                                     std::span<const Signature> sigs_t1,
                                     SignatureDistance dist,
                                     MasqueradeDetector::Options options) {
  assert(nodes.size() == sigs_t.size());
  assert(nodes.size() == sigs_t1.size());
  const size_t n = nodes.size();
  MasqueradeDetection out;
  std::vector<double> self_persistence(n);
  double sum = 0.0;
  for (size_t v = 0; v < n; ++v) {
    self_persistence[v] = 1.0 - dist(sigs_t[v], sigs_t1[v]);
    sum += self_persistence[v];
  }
  out.delta = options.fixed_delta >= 0.0
                  ? options.fixed_delta
                  : sum / (options.delta_divisor * static_cast<double>(n));
  for (size_t v = 0; v < n; ++v) {
    if (self_persistence[v] > out.delta) {
      out.non_suspects.push_back(nodes[v]);
      continue;
    }
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t u = 0; u < n; ++u) {
      if (u == v) continue;
      ranked.emplace_back(1.0 - dist(sigs_t[v], sigs_t1[u]), u);
    }
    const size_t ell = std::min(options.top_ell, ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + ell, ranked.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    bool found = false;
    for (size_t r = 0; r < ell; ++r) {
      const size_t u = ranked[r].second;
      if (self_persistence[u] <= out.delta) {
        out.detected.emplace_back(nodes[v], nodes[u]);
        found = true;
        break;
      }
    }
    if (!found) out.non_suspects.push_back(nodes[v]);
  }
  return out;
}

std::vector<RocResult> SelfMatchRoc(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist) {
  assert(sigs_t.size() == sigs_t1.size());
  const size_t n = sigs_t.size();
  std::vector<RocResult> results;
  std::vector<double> scores(n);
  std::vector<bool> relevant(n);
  for (size_t v = 0; v < n; ++v) {
    for (size_t u = 0; u < n; ++u) {
      scores[u] = dist(sigs_t[v], sigs_t1[u]);
      relevant[u] = (u == v);
    }
    results.push_back(ComputeRoc(scores, relevant));
  }
  return results;
}

std::vector<RocResult> SetMatchRoc(
    std::span<const Signature> queries,
    std::span<const size_t> query_indices,
    std::span<const Signature> candidates,
    const std::vector<std::vector<size_t>>& relevant_sets,
    SignatureDistance dist, bool exclude_self) {
  std::vector<RocResult> results;
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<double> scores;
    std::vector<bool> relevant;
    std::vector<bool> is_relevant(candidates.size(), false);
    for (size_t idx : relevant_sets[q]) is_relevant[idx] = true;
    for (size_t u = 0; u < candidates.size(); ++u) {
      if (exclude_self && u == query_indices[q]) continue;
      scores.push_back(dist(queries[q], candidates[u]));
      relevant.push_back(is_relevant[u]);
    }
    results.push_back(ComputeRoc(scores, relevant));
  }
  return results;
}

}  // namespace commsig::ref

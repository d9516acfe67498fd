#include "eval/properties.h"

#include <cassert>

#include "common/random.h"
#include "core/signature_index.h"

namespace commsig {

std::vector<double> PersistenceValues(std::span<const Signature> sigs_t,
                                      std::span<const Signature> sigs_t1,
                                      SignatureDistance dist) {
  assert(sigs_t.size() == sigs_t1.size());
  std::vector<double> values;
  values.reserve(sigs_t.size());
  for (size_t i = 0; i < sigs_t.size(); ++i) {
    values.push_back(1.0 - dist(sigs_t[i], sigs_t1[i]));
  }
  return values;
}

std::vector<double> UniquenessValues(std::span<const Signature> sigs,
                                     SignatureDistance dist, size_t max_pairs,
                                     uint64_t seed) {
  const size_t n = sigs.size();
  std::vector<double> values;
  if (n < 2) return values;
  const size_t total_pairs = n * (n - 1) / 2;

  if (max_pairs == 0 || total_pairs <= max_pairs) {
    // Row v holds (v, u) for u > v; the index scores only the pairs whose
    // distance is not exactly 1.0, one row pass per v.
    values.resize(total_pairs);
    const SignatureIndex index(sigs);
    size_t row = 0;
    for (size_t v = 0; v + 1 < n; ++v) {
      index.DistanceRow(sigs[v], dist, v + 1,
                        std::span(values).subspan(row, n - v - 1));
      row += n - v - 1;
    }
    return values;
  }

  // Sample pairs uniformly (with replacement across draws; duplicate pairs
  // are acceptable in a mean/stddev estimate).
  Rng rng(seed);
  values.reserve(max_pairs);
  for (size_t s = 0; s < max_pairs; ++s) {
    size_t v = rng.UniformInt(n);
    size_t u = rng.UniformInt(n - 1);
    if (u >= v) ++u;
    values.push_back(dist(sigs[v], sigs[u]));
  }
  return values;
}

PropertyEllipse SummarizeProperties(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist, size_t max_pairs,
                                    uint64_t seed) {
  PropertyEllipse e;
  RunningStats p_stats, u_stats;
  for (double p : PersistenceValues(sigs_t, sigs_t1, dist)) p_stats.Add(p);
  for (double u : UniquenessValues(sigs_t, dist, max_pairs, seed)) {
    u_stats.Add(u);
  }
  e.mean_persistence = p_stats.Mean();
  e.std_persistence = p_stats.StdDev();
  e.mean_uniqueness = u_stats.Mean();
  e.std_uniqueness = u_stats.StdDev();
  e.persistence_count = p_stats.count();
  e.uniqueness_count = u_stats.count();
  return e;
}

std::vector<RocResult> SelfMatchRoc(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist) {
  assert(sigs_t.size() == sigs_t1.size());
  const size_t n = sigs_t.size();
  std::vector<RocResult> results;
  results.reserve(n);
  const SignatureIndex index(sigs_t1);
  std::vector<double> scores(n);
  std::vector<bool> relevant(n, false);
  for (size_t v = 0; v < n; ++v) {
    index.DistanceRow(sigs_t[v], dist, 0, scores);
    relevant[v] = true;
    results.push_back(ComputeRoc(scores, relevant));
    relevant[v] = false;
  }
  return results;
}

std::vector<RocResult> SetMatchRoc(
    std::span<const Signature> queries,
    std::span<const size_t> query_indices,
    std::span<const Signature> candidates,
    const std::vector<std::vector<size_t>>& relevant_sets,
    SignatureDistance dist, bool exclude_self) {
  assert(queries.size() == query_indices.size());
  assert(queries.size() == relevant_sets.size());
  std::vector<RocResult> results;
  results.reserve(queries.size());
  const SignatureIndex index(candidates);
  std::vector<double> row(candidates.size());

  for (size_t q = 0; q < queries.size(); ++q) {
    index.DistanceRow(queries[q], dist, 0, row);
    std::vector<double> scores;
    std::vector<bool> relevant;
    scores.reserve(candidates.size());
    relevant.reserve(candidates.size());
    std::vector<bool> is_relevant(candidates.size(), false);
    for (size_t idx : relevant_sets[q]) {
      assert(idx < candidates.size());
      is_relevant[idx] = true;
    }
    for (size_t u = 0; u < candidates.size(); ++u) {
      if (exclude_self && u == query_indices[q]) continue;
      scores.push_back(row[u]);
      relevant.push_back(is_relevant[u]);
    }
    results.push_back(ComputeRoc(scores, relevant));
  }
  return results;
}

}  // namespace commsig

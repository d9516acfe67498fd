#include "core/rwr.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/rwr_batch.h"
#include "graph/graph_delta.h"
#include "obs/obs.h"

namespace commsig {

std::string RwrScheme::name() const {
  char buf[64];
  if (rwr_.max_hops > 0) {
    std::snprintf(buf, sizeof(buf), "rwr(c=%g,h=%zu)", rwr_.reset,
                  rwr_.max_hops);
  } else {
    std::snprintf(buf, sizeof(buf), "rwr(c=%g)", rwr_.reset);
  }
  return buf;
}

SchemeTraits RwrScheme::traits() const {
  if (rwr_.max_hops > 0) {
    // RWR^h: locality + transitivity -> all three properties (Table III).
    return {{GraphCharacteristic::kLocality,
             GraphCharacteristic::kTransitivity},
            {SignatureProperty::kPersistence, SignatureProperty::kUniqueness,
             SignatureProperty::kRobustness}};
  }
  return {{GraphCharacteristic::kTransitivity,
           GraphCharacteristic::kEngagement},
          {SignatureProperty::kPersistence, SignatureProperty::kRobustness}};
}

std::vector<double> RwrScheme::StationaryVector(const CommGraph& g,
                                                NodeId v) const {
  return Solve(g, v).probabilities;
}

RwrScheme::RwrSolve RwrScheme::Solve(const CommGraph& g, NodeId v) const {
  TransitionCache cache(g, rwr_.traversal);
  RwrBatchEngine engine(rwr_, cache);
  return std::move(engine.SolveBatch(std::span<const NodeId>(&v, 1))[0]);
}

Signature RwrScheme::SignatureFromSupport(
    const CommGraph& g, NodeId v,
    std::span<const Signature::Entry> support) const {
  // Streaming selection with the Definition-1 filter fused in (the
  // partition test hoisted out of the loop): no candidate vector, no
  // partitioning pass. Selects the same top-k set FromTopK would.
  Signature::TopKSelector selector(options_.k);
  const bool restrict_partition =
      options_.restrict_to_opposite_partition && g.bipartite().IsBipartite();
  if (restrict_partition) {
    const bool focal_left = g.InLeftPartition(v);
    for (const Signature::Entry& e : support) {
      if (e.node == v || g.InLeftPartition(e.node) == focal_left) continue;
      selector.Offer(e);
    }
  } else {
    for (const Signature::Entry& e : support) {
      if (e.node != v) selector.Offer(e);
    }
  }
  return selector.Take();
}

Signature RwrScheme::Compute(const CommGraph& g, NodeId v) const {
  return ComputeAll(g, std::span<const NodeId>(&v, 1))[0];
}

std::vector<Signature> RwrScheme::ComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes) const {
  if (nodes.empty()) return {};
  COMMSIG_SPAN("rwr/compute_all_batched");
  // One normalizer/partition derivation for the whole sweep, shared by the
  // main engine and the fallback ladder.
  TransitionCache cache(g, rwr_.traversal);
  return SolveManyBatched(g, cache, nodes, {}, nullptr, nullptr);
}

std::vector<Signature> RwrScheme::SolveManyBatched(
    const CommGraph& g, const TransitionCache& cache,
    std::span<const NodeId> nodes,
    std::span<const std::span<const Signature::Entry>> seeds,
    std::vector<std::vector<Signature::Entry>>* supports,
    size_t* reseeded_columns) const {
  std::vector<Signature> out(nodes.size());
  if (supports != nullptr) {
    supports->clear();
    supports->resize(nodes.size());
  }
  if (nodes.empty()) return out;

  RwrBatchEngine engine(rwr_, cache);
  RwrBatchWorkspace& ws = RwrBatchEngine::LocalWorkspace();

  RwrOptions truncated = rwr_;
  truncated.max_hops = rwr_.fallback_hops;
  RwrBatchEngine fallback_engine(truncated, cache);

  // One rung of the ladder: the batch columns it solved and their
  // support-sparse results, reused across batches so the sweep never
  // materializes n-length vectors.
  struct Rung {
    std::vector<size_t> columns;
    std::vector<NodeId> sources;
    std::vector<Signature::Entry> entries;
    std::vector<std::pair<size_t, size_t>> ranges;
    std::vector<uint8_t> converged;
  };
  Rung first, reseeded, fallback;
  // Per batch column: the rung holding its latest result, and its index
  // there.
  std::vector<std::pair<const Rung*, size_t>> latest;

  const bool use_fallback = rwr_.max_hops == 0 && rwr_.fallback_hops > 0;
  const size_t width = RwrBatchEngine::kDefaultBatchWidth;
  for (size_t begin = 0; begin < nodes.size(); begin += width) {
    const size_t count = std::min(width, nodes.size() - begin);
    std::span<const NodeId> batch = nodes.subspan(begin, count);
    std::span<const std::span<const Signature::Entry>> batch_seeds =
        seeds.empty() ? seeds : seeds.subspan(begin, count);
    engine.SolveBatchSupport(batch, ws, first.entries, first.ranges,
                             first.converged, batch_seeds);
    latest.clear();
    for (size_t b = 0; b < count; ++b) latest.push_back({&first, b});

    // Re-solves the still-unconverged columns (only the seeded ones when
    // `seeded_only`) as one unseeded sub-batch on `eng`.
    auto resolve_unconverged = [&](Rung& rung, const RwrBatchEngine& eng,
                                   bool seeded_only) {
      rung.columns.clear();
      rung.sources.clear();
      for (size_t b = 0; b < count; ++b) {
        const auto [prev, j] = latest[b];
        if (prev->converged[j]) continue;
        if (seeded_only && batch_seeds[b].empty()) continue;
        rung.columns.push_back(b);
        rung.sources.push_back(batch[b]);
      }
      if (rung.sources.empty()) return size_t{0};
      eng.SolveBatchSupport(rung.sources, ws, rung.entries, rung.ranges,
                            rung.converged);
      for (size_t j = 0; j < rung.columns.size(); ++j) {
        latest[rung.columns[j]] = {&rung, j};
      }
      return rung.sources.size();
    };
    if (!batch_seeds.empty()) {
      // A warm start that misses tolerance gets a cold attempt before the
      // ladder, exactly like a node that was never seeded.
      const size_t retried = resolve_unconverged(reseeded, engine, true);
      if (reseeded_columns != nullptr) *reseeded_columns += retried;
    }
    if (use_fallback) {
      // Degradation ladder (RWR -> RWR^h): an unconverged vector has no
      // accuracy guarantee at any rank, while the truncated walk is exact
      // for its restricted h-hop semantics — a defined approximation beats
      // an undefined one.
      const size_t fell_back = resolve_unconverged(fallback, fallback_engine,
                                                   false);
      if (fell_back > 0) {
        COMMSIG_COUNTER_ADD("robust/rwr_fallbacks", fell_back);
      }
    }

    for (size_t b = 0; b < count; ++b) {
      const auto [rung, j] = latest[b];
      const auto [start, end] = rung->ranges[j];
      std::span<const Signature::Entry> support(rung->entries.data() + start,
                                                end - start);
      out[begin + b] = SignatureFromSupport(g, batch[b], support);
      if (supports != nullptr) {
        (*supports)[begin + b].assign(support.begin(), support.end());
      }
    }
  }
  return out;
}

namespace {

/// RwrScheme's warm state: per focal node, the sparse support of the last
/// solved stationary vector and the drift-bound mass accumulated against
/// it since. Memory is O(sum of support sizes) — bounded by h-hop
/// neighbourhood sizes for truncated walks, up to O(reachable set) for
/// unbounded ones. `warm` is dense, index-aligned with `nodes` (the focal
/// population the state was primed for — a changed population re-primes),
/// so the steady-state per-focal probe is an array load, not a hash find.
/// The TransitionCache is carried across windows and Rebased per delta,
/// making the fixed per-window setup O(changed rows) instead of O(n).
struct RwrIncrementalState final : IncrementalState {
  struct Warm {
    std::vector<Signature::Entry> support;
    double acc_drift = 0.0;
  };
  std::vector<NodeId> nodes;
  std::vector<Warm> warm;
  std::optional<TransitionCache> cache;
  /// Scratch: normalized drift per changed row, kept all-zero between
  /// calls (only the entries touched this window are set and re-cleared)
  /// so steady state pays no O(n) refill.
  std::vector<double> row_drift;
};

/// Merge-walk over two id-sorted edge rows accumulating
/// sum |w_new/norm_new - w_old/norm_old| (absent edges contribute their
/// full normalized weight).
double NormalizedRowL1(std::span<const Edge> old_row,
                       std::span<const Edge> new_row, double inv_old,
                       double inv_new) {
  double drift = 0.0;
  size_t i = 0, j = 0;
  while (i < old_row.size() || j < new_row.size()) {
    if (j == new_row.size() ||
        (i < old_row.size() && old_row[i].node < new_row[j].node)) {
      drift += old_row[i].weight * inv_old;
      ++i;
    } else if (i == old_row.size() || new_row[j].node < old_row[i].node) {
      drift += new_row[j].weight * inv_new;
      ++j;
    } else {
      drift += std::fabs(new_row[j].weight * inv_new -
                         old_row[i].weight * inv_old);
      ++i;
      ++j;
    }
  }
  return drift;
}

/// L1 distance between x's normalized transition rows in the two windows.
/// Dangling rows redirect to the walk's start node, so a walkable <->
/// dangling flip is maximal drift (2); symmetric traversals sum the out-
/// and in-halves separately, a triangle-inequality upper bound on the
/// merged row's true drift.
double TransitionRowDrift(const CommGraph& old_g, const CommGraph& new_g,
                          const TransitionCache& cache, NodeId x,
                          bool symmetric) {
  const double old_norm =
      old_g.OutWeight(x) + (symmetric ? old_g.InWeight(x) : 0.0);
  const bool old_walkable = old_norm > 0.0;
  if (old_walkable != cache.walkable(x)) return 2.0;
  if (!old_walkable) return 0.0;
  const double inv_old = 1.0 / old_norm;
  const double inv_new = cache.inv_norm(x);
  double drift = NormalizedRowL1(old_g.OutEdges(x), new_g.OutEdges(x),
                                 inv_old, inv_new);
  if (symmetric) {
    drift += NormalizedRowL1(old_g.InEdges(x), new_g.InEdges(x), inv_old,
                             inv_new);
  }
  return std::min(drift, 2.0);
}

}  // namespace

std::vector<Signature> RwrScheme::IncrementalComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes, const GraphDelta* delta,
    std::vector<Signature> previous,
    std::unique_ptr<IncrementalState>& state) const {
  auto* st = dynamic_cast<RwrIncrementalState*>(state.get());
  const bool can_advance =
      st != nullptr && delta != nullptr && previous.size() == nodes.size() &&
      st->nodes.size() == nodes.size() && st->cache.has_value() &&
      st->cache->num_nodes() == g.NumNodes() &&
      std::equal(nodes.begin(), nodes.end(), st->nodes.begin());
  if (!can_advance) {
    // Prime: full batched sweep, capturing every stationary support as the
    // warm state for the transitions that follow.
    auto fresh = std::make_unique<RwrIncrementalState>();
    COMMSIG_COUNTER_ADD("timeline/nodes_dirty", nodes.size());
    std::vector<Signature> out;
    fresh->cache.emplace(g, rwr_.traversal);
    fresh->nodes.assign(nodes.begin(), nodes.end());
    fresh->warm.resize(nodes.size());
    fresh->row_drift.assign(g.NumNodes(), 0.0);
    if (!nodes.empty()) {
      std::vector<std::vector<Signature::Entry>> supports;
      out = SolveManyBatched(g, *fresh->cache, nodes, {}, &supports, nullptr);
      for (size_t i = 0; i < nodes.size(); ++i) {
        fresh->warm[i].support = std::move(supports[i]);
      }
    }
    state = std::move(fresh);
    return out;
  }

  COMMSIG_SPAN("rwr/incremental_compute_all");
  const bool symmetric = rwr_.traversal == TraversalMode::kSymmetric;
  const double c = rwr_.reset;
  // Carry the previous window's cache forward: only changed rows can hold
  // new normalizers, so the per-window setup is O(changed), not O(n).
  st->cache->Rebase(g, delta->changed_row_nodes());
  const TransitionCache& cache = *st->cache;

  // Normalized transition drift of every changed row, dense-indexed so the
  // per-focal pass is a sparse dot against its stored support. The scratch
  // lives in the state (all-zero between calls) to skip the O(n) refill.
  const CommGraph& old_g = delta->old_graph();
  std::vector<double>& row_drift = st->row_drift;
  bool any_drift = false;
  for (NodeId x : delta->changed_row_nodes()) {
    if (!delta->RowChanged(x, symmetric)) continue;
    const double d = TransitionRowDrift(old_g, g, cache, x, symmetric);
    if (d > 0.0) {
      row_drift[x] = d;
      any_drift = true;
    }
  }

  // Geometric amplification of one-step row drift over the whole walk:
  // sum_{t=1..h} (1-c)^t, with h -> inf for the unbounded walk. c = 0 has
  // no contraction, so only exact-zero drift may reuse there.
  double factor;
  if (c <= 0.0) {
    factor = 1e30;
  } else if (rwr_.max_hops > 0) {
    factor = (1.0 - c) *
             (1.0 - std::pow(1.0 - c, static_cast<double>(rwr_.max_hops))) / c;
  } else {
    factor = (1.0 - c) / c;
  }

  std::vector<Signature> out(nodes.size());
  std::vector<NodeId> resolve_nodes;
  std::vector<size_t> resolve_slots;
  std::vector<std::span<const Signature::Entry>> seeds;
  size_t reused = 0;
  size_t warm_fallbacks = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    RwrIncrementalState::Warm& warm = st->warm[i];
    double weighted = 0.0;
    if (any_drift) {
      for (const Signature::Entry& e : warm.support) {
        weighted += e.weight * row_drift[e.node];
      }
    }
    if (weighted > 0.0) warm.acc_drift += factor * weighted;
    if (warm.acc_drift <= rwr_.incremental_max_drift) {
      out[i] = std::move(previous[i]);  // reuse is O(1), previous is owned
      ++reused;
      continue;
    }
    // Warm start (unbounded walks only): the node's column starts from its
    // stored support, and the engine's convergence criterion makes the
    // fixed point — and therefore the signature — match a cold solve
    // within tolerance. Truncated walks re-solve exactly (their normal
    // path); unbounded walks past the warm bound re-solve cold.
    const bool warm_start = rwr_.max_hops == 0 &&
                            warm.acc_drift <= rwr_.incremental_warm_drift;
    if (rwr_.max_hops == 0 && !warm_start) ++warm_fallbacks;
    resolve_nodes.push_back(nodes[i]);
    resolve_slots.push_back(i);
    seeds.push_back(warm_start ? std::span<const Signature::Entry>(
                                     warm.support)
                               : std::span<const Signature::Entry>());
  }

  if (!resolve_nodes.empty()) {
    std::vector<std::vector<Signature::Entry>> supports;
    size_t reseeded = 0;
    std::vector<Signature> solved = SolveManyBatched(
        g, cache, resolve_nodes, seeds, &supports, &reseeded);
    warm_fallbacks += reseeded;
    for (size_t j = 0; j < resolve_nodes.size(); ++j) {
      out[resolve_slots[j]] = std::move(solved[j]);
      st->warm[resolve_slots[j]] = {std::move(supports[j]), 0.0};
    }
  }

  // Restore the row_drift all-zero invariant by clearing only what this
  // window touched.
  for (NodeId x : delta->changed_row_nodes()) row_drift[x] = 0.0;

  COMMSIG_COUNTER_ADD("timeline/nodes_reused", reused);
  COMMSIG_COUNTER_ADD("timeline/nodes_dirty", nodes.size() - reused);
  if (warm_fallbacks > 0) {
    COMMSIG_COUNTER_ADD("timeline/rwr_warm_start_fallbacks", warm_fallbacks);
  }
  return out;
}

std::unique_ptr<SignatureScheme> MakeRwr(SchemeOptions options,
                                         RwrOptions rwr_options) {
  return std::make_unique<RwrScheme>(options, rwr_options);
}

}  // namespace commsig

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
  return SolveManyBatched(cache, nodes, {}, {}, nullptr);
}

std::vector<Signature> RwrScheme::SolveManyBatched(
    const TransitionCache& cache, std::span<const NodeId> nodes,
    std::span<const std::span<const Signature::Entry>> seeds,
    std::span<std::vector<Signature::Entry>* const> supports,
    size_t* reseeded_columns) const {
  std::vector<Signature> out(nodes.size());
  if (nodes.empty()) return out;
  const CommGraph& g = cache.graph();

  RwrBatchEngine engine(rwr_, cache);
  RwrBatchWorkspace& ws = RwrBatchEngine::LocalWorkspace();

  RwrOptions truncated = rwr_;
  truncated.max_hops = rwr_.fallback_hops;
  RwrBatchEngine fallback_engine(truncated, cache);
  const bool use_fallback = rwr_.max_hops == 0 && rwr_.fallback_hops > 0;

  // Definition 1's candidates for focal nodes[i]: every other node or, on
  // a bipartite graph with the partition restriction, the other side.
  // Readies a sink for that focal: an empty selection and an emptied warm
  // support, which an RWR^h walk fills with its interior entries only.
  const bool restrict_partition =
      options_.restrict_to_opposite_partition && g.bipartite().IsBipartite();
  const NodeId left = g.bipartite().left_size;
  auto reset = [&](RwrColumnSink& sink, size_t i) {
    const NodeId v = nodes[i];
    sink.top.Reset();
    sink.focal = v;
    sink.lo = restrict_partition && v < left ? left : 0;
    sink.hi = restrict_partition && v >= left ? left : kInvalidNode;
    sink.support = supports.empty() ? nullptr : supports[i];
    if (sink.support != nullptr) sink.support->clear();
    sink.interior_only = rwr_.max_hops > 0;
  };

  const size_t width = RwrBatchEngine::kDefaultBatchWidth;
  std::vector<RwrColumnSink> sinks(width, RwrColumnSink(options_.k));
  std::vector<RwrColumnSink> rung_sinks;
  std::vector<uint8_t> converged, rung_converged;
  std::vector<size_t> rung_columns;
  std::vector<NodeId> rung_sources;
  for (size_t begin = 0; begin < nodes.size(); begin += width) {
    const size_t count = std::min(width, nodes.size() - begin);
    std::span<const NodeId> batch = nodes.subspan(begin, count);
    std::span<const std::span<const Signature::Entry>> batch_seeds =
        seeds.empty() ? seeds : seeds.subspan(begin, count);
    for (size_t b = 0; b < count; ++b) reset(sinks[b], begin + b);
    engine.SolveBatchSelect(batch, ws, std::span(sinks).first(count),
                            converged, batch_seeds);

    // Re-solves the still-unconverged columns (only the seeded ones when
    // `seeded_only`) as one unseeded sub-batch on `eng`; each column
    // discards what its sink took so far and takes the sub-batch's result.
    auto resolve_unconverged = [&](const RwrBatchEngine& eng,
                                   bool seeded_only) {
      rung_columns.clear();
      rung_sources.clear();
      rung_sinks.clear();
      for (size_t b = 0; b < count; ++b) {
        if (converged[b]) continue;
        if (seeded_only && batch_seeds[b].empty()) continue;
        rung_columns.push_back(b);
        rung_sources.push_back(batch[b]);
        reset(sinks[b], begin + b);
        rung_sinks.push_back(std::move(sinks[b]));
      }
      if (rung_sources.empty()) return size_t{0};
      eng.SolveBatchSelect(rung_sources, ws, rung_sinks, rung_converged);
      for (size_t j = 0; j < rung_columns.size(); ++j) {
        sinks[rung_columns[j]] = std::move(rung_sinks[j]);
        converged[rung_columns[j]] = rung_converged[j];
      }
      return rung_sources.size();
    };
    if (!batch_seeds.empty()) {
      // A warm start that misses tolerance gets a cold attempt before the
      // ladder, exactly like a node that was never seeded.
      const size_t retried = resolve_unconverged(engine, true);
      if (reseeded_columns != nullptr) *reseeded_columns += retried;
    }
    if (use_fallback) {
      // Degradation ladder (RWR -> RWR^h): an unconverged vector has no
      // accuracy guarantee at any rank, while the truncated walk is exact
      // for its restricted h-hop semantics — a defined approximation beats
      // an undefined one.
      const size_t fell_back = resolve_unconverged(fallback_engine, false);
      if (fell_back > 0) {
        COMMSIG_COUNTER_ADD("robust/rwr_fallbacks", fell_back);
      }
    }

    for (size_t b = 0; b < count; ++b) out[begin + b] = sinks[b].top.Take();
  }
  return out;
}

namespace {

/// RwrScheme's warm state: per focal node, the sparse support of the last
/// solved stationary vector and the drift-bound mass accumulated against
/// it since — for walks with c > 0; c = 0 walks keep none. An RWR^h
/// support holds the final vector's entries on the (h−1)-hop ball the walk
/// reads; an unbounded one holds them all, up to O(reachable set). `warm`
/// is dense, index-aligned with `nodes` (the focal population the state was
/// primed for — a changed population re-primes), so the steady-state
/// per-focal probe is an array load, not a hash find. The TransitionCache
/// is carried across windows and Rebased per delta, making the fixed
/// per-window setup O(changed rows) instead of O(n).
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
  const double c = rwr_.reset;
  if (!can_advance) {
    // Prime: full batched sweep, capturing every stationary support as the
    // warm state for the transitions that follow.
    auto fresh = std::make_unique<RwrIncrementalState>();
    COMMSIG_COUNTER_ADD("timeline/nodes_dirty", nodes.size());
    fresh->cache.emplace(g, rwr_.traversal);
    fresh->nodes.assign(nodes.begin(), nodes.end());
    std::vector<std::vector<Signature::Entry>*> supports;
    if (c > 0.0) {
      fresh->warm.resize(nodes.size());
      fresh->row_drift.assign(g.NumNodes(), 0.0);
      for (RwrIncrementalState::Warm& w : fresh->warm) {
        supports.push_back(&w.support);
      }
    }
    std::vector<Signature> out =
        SolveManyBatched(*fresh->cache, nodes, {}, supports, nullptr);
    state = std::move(fresh);
    return out;
  }

  COMMSIG_SPAN("rwr/incremental_compute_all");
  const bool symmetric = rwr_.traversal == TraversalMode::kSymmetric;
  // Carry the previous window's cache forward: only changed rows can hold
  // new normalizers, so the per-window setup is O(changed), not O(n).
  st->cache->Rebase(g, delta->changed_row_nodes());
  const TransitionCache& cache = *st->cache;

  std::vector<Signature> out(nodes.size());
  std::vector<NodeId> resolve_nodes;
  std::vector<size_t> resolve_slots;
  std::vector<std::vector<Signature::Entry>*> supports;
  std::vector<std::vector<Signature::Entry>> seeds;
  size_t reused = 0;
  size_t warm_fallbacks = 0;
  if (c <= 0.0) {
    // A c = 0 walk never returns to its source, so the drift sum, which
    // weighs each changed row by the final vector's mass there, can miss
    // the rows the walk read (the source's own among them). Such walks keep
    // no warm state: a window that changes no transition row reuses every
    // node, and any changed row re-solves every node cold.
    const bool any_changed = std::any_of(
        delta->changed_row_nodes().begin(), delta->changed_row_nodes().end(),
        [&](NodeId x) { return delta->RowChanged(x, symmetric); });
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!any_changed) {
        out[i] = std::move(previous[i]);
        ++reused;
        continue;
      }
      if (rwr_.max_hops == 0) ++warm_fallbacks;
      resolve_nodes.push_back(nodes[i]);
      resolve_slots.push_back(i);
    }
  } else {
    // Normalized transition drift of every changed row, dense-indexed so
    // the per-focal pass is a sparse dot against its stored support. The
    // scratch lives in the state (all-zero between calls) to skip the O(n)
    // refill.
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
    // sum_{t=1..h} (1-c)^t, with h -> inf for the unbounded walk.
    double factor = (1.0 - c) / c;
    if (rwr_.max_hops > 0) {
      factor = (1.0 - c) *
               (1.0 - std::pow(1.0 - c, static_cast<double>(rwr_.max_hops))) /
               c;
    }

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
      // Warm start (unbounded walks only): the node's column starts from
      // its stored support, and the engine's convergence criterion makes
      // the fixed point — and therefore the signature — match a cold solve
      // within tolerance. Truncated walks re-solve exactly (their normal
      // path); unbounded walks past the warm bound re-solve cold.
      if (rwr_.max_hops == 0) {
        // The sweep refills warm.support, so a warm seed moves aside.
        if (warm.acc_drift <= rwr_.incremental_warm_drift) {
          seeds.push_back(std::move(warm.support));
        } else {
          ++warm_fallbacks;
          seeds.emplace_back();
        }
      }
      warm.acc_drift = 0.0;
      resolve_nodes.push_back(nodes[i]);
      resolve_slots.push_back(i);
      supports.push_back(&warm.support);
    }

    // Restore the row_drift all-zero invariant by clearing only what this
    // window touched.
    for (NodeId x : delta->changed_row_nodes()) row_drift[x] = 0.0;
  }

  if (!resolve_nodes.empty()) {
    size_t reseeded = 0;
    const std::vector<std::span<const Signature::Entry>> seed_spans(
        seeds.begin(), seeds.end());
    std::vector<Signature> solved = SolveManyBatched(
        cache, resolve_nodes, seed_spans, supports, &reseeded);
    warm_fallbacks += reseeded;
    for (size_t j = 0; j < resolve_nodes.size(); ++j) {
      out[resolve_slots[j]] = std::move(solved[j]);
    }
  }

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

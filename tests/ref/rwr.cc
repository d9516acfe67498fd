#include "ref/rwr.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.h"

namespace commsig::ref {

RwrScheme::RwrSolve RwrSolve(const RwrOptions& opts, const CommGraph& g,
                             NodeId v, const TransitionCache& cache,
                             std::vector<double> r) {
  const size_t n = g.NumNodes();
  const bool symmetric = opts.traversal == TraversalMode::kSymmetric;
  const double c = opts.reset;

  // Scratch survives across calls: an all-hosts sweep allocates the result
  // vector only, not a second O(n) buffer per solve.
  thread_local std::vector<double> scratch;
  scratch.assign(n, 0.0);
  std::vector<double>& next = scratch;

  const size_t iterations =
      opts.max_hops > 0 ? opts.max_hops : opts.max_iterations;
  size_t iterations_run = 0;
  double last_residual = 0.0;
  bool converged = opts.max_hops > 0;  // truncated walks converge by fiat
  for (size_t iter = 0; iter < iterations; ++iter) {
    ++iterations_run;
    std::fill(next.begin(), next.end(), 0.0);
    // Walking mass (the reset-tax base) and dangling mass are accumulated
    // inside the scatter scan.
    double walked = 0.0;
    double dangling = 0.0;
    for (NodeId x = 0; x < n; ++x) {
      const double mass = r[x];
      if (mass == 0.0) continue;
      if (!cache.walkable(x)) {
        // Nodes with no traversable edges return their mass to the start
        // node, preserving a total probability of 1.
        dangling += mass;
        continue;
      }
      walked += mass;
      // Multiply by the cached reciprocal instead of dividing — the same
      // two-multiply expression the batched engine uses, which keeps the
      // two paths bit-identical.
      const double scale = mass * ((1.0 - c) * cache.inv_norm(x));
      for (const Edge& e : g.OutEdges(x)) {
        next[e.node] += scale * e.weight;
      }
      if (symmetric) {
        for (const Edge& e : g.InEdges(x)) {
          next[e.node] += scale * e.weight;
        }
      }
    }
    // Reset mass: c from every walking node, plus everything a dangling
    // node would have carried.
    next[v] += c * walked + dangling;

    if (opts.max_hops == 0) {
      double delta = 0.0;
      for (size_t i = 0; i < n; ++i) delta += std::fabs(next[i] - r[i]);
      r.swap(next);
      last_residual = delta;
      if (delta < opts.tolerance) {
        converged = true;
        break;
      }
    } else {
      r.swap(next);
    }
  }
  COMMSIG_COUNTER_ADD("rwr/calls", 1);
  COMMSIG_COUNTER_ADD("rwr/iterations", iterations_run);
  if (opts.max_hops == 0) {
    COMMSIG_HISTOGRAM_OBSERVE("rwr/residual_at_convergence", last_residual);
  }
  return {std::move(r), converged, last_residual, iterations_run};
}

RwrScheme::RwrSolve RwrSolve(const RwrOptions& opts, const CommGraph& g,
                             NodeId v) {
  std::vector<double> r(g.NumNodes(), 0.0);
  r[v] = 1.0;
  return RwrSolve(opts, g, v, TransitionCache(g, opts.traversal),
                  std::move(r));
}

Signature RwrSignature(const SchemeOptions& options, const RwrOptions& opts,
                       const CommGraph& g, NodeId v) {
  RwrScheme::RwrSolve solve = RwrSolve(opts, g, v);
  if (!solve.converged && opts.fallback_hops > 0) {
    COMMSIG_COUNTER_ADD("robust/rwr_fallbacks", 1);
    RwrOptions truncated = opts;
    truncated.max_hops = opts.fallback_hops;
    solve = RwrSolve(truncated, g, v);
  }
  const bool restrict_partition =
      options.restrict_to_opposite_partition && g.bipartite().IsBipartite();
  std::vector<Signature::Entry> candidates;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const double p = solve.probabilities[u];
    if (p <= 0.0 || u == v) continue;
    if (restrict_partition && g.InLeftPartition(u) == g.InLeftPartition(v)) {
      continue;
    }
    candidates.push_back({u, p});
  }
  return Signature::FromTopK(std::move(candidates), options.k);
}

}  // namespace commsig::ref

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

  // Chebyshev semi-iteration for unbounded symmetric walks with c > 0:
  // x_{t+1} = ω_{t+1}·(y − x_{t−1}) + x_{t−1}, y the plain step from x_t,
  // ω_1 = 1, ω_2 = 2/(2 − ρ²), ω_{t+1} = 1/(1 − ρ²·ω_t/4), ρ = 1 − c.
  const bool chebyshev = opts.max_hops == 0 && symmetric && c > 0.0;
  const double rho2 = (1.0 - c) * (1.0 - c);
  double omega = 1.0;

  // Scratch survives across calls: an all-hosts sweep allocates the result
  // vector only, not a second O(n) buffer per solve.
  thread_local std::vector<double> scratch, prev_scratch;
  scratch.assign(n, 0.0);
  prev_scratch.assign(chebyshev ? n : 0, 0.0);
  std::vector<double>& next = scratch;
  std::vector<double>& prev = prev_scratch;

  const size_t iterations =
      opts.max_hops > 0 ? opts.max_hops : opts.max_iterations;
  size_t iterations_run = 0;
  double last_residual = 0.0;
  bool converged = opts.max_hops > 0;  // truncated walks converge by fiat
  for (size_t iter = 0; iter < iterations; ++iter) {
    ++iterations_run;
    if (chebyshev && iter == 1) {
      omega = 2.0 / (2.0 - rho2);
    } else if (chebyshev && iter > 1) {
      omega = 1.0 / (1.0 - rho2 * omega / 4.0);
    }
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
      // Converged on the plain step, and reported as it: extrapolation
      // happens only after the test, and never on the last permitted step.
      double delta = 0.0;
      for (size_t i = 0; i < n; ++i) delta += std::fabs(next[i] - r[i]);
      last_residual = delta;
      if (delta < opts.tolerance) {
        r.swap(next);
        converged = true;
        break;
      }
      if (chebyshev && iter > 0 && iter + 1 < iterations) {
        for (size_t i = 0; i < n; ++i) {
          next[i] = omega * (next[i] - prev[i]) + prev[i];
        }
      }
      if (chebyshev) prev.swap(r);
      r.swap(next);
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

std::vector<double> RwrDirectSolve(const RwrOptions& opts, const CommGraph& g,
                                   NodeId v) {
  const size_t n = g.NumNodes();
  const bool symmetric = opts.traversal == TraversalMode::kSymmetric;
  const double c = opts.reset;
  // a = I − (1−c)·P̃ᵀ, row-major: a[i·n + j] = δ_ij − (1−c)·P̃[j][i].
  std::vector<double> a(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) a[i * n + i] = 1.0;
  for (NodeId j = 0; j < n; ++j) {
    const double norm = g.OutWeight(j) + (symmetric ? g.InWeight(j) : 0.0);
    if (norm <= 0.0) {
      a[static_cast<size_t>(v) * n + j] -= 1.0 - c;
      continue;
    }
    auto subtract = [&](std::span<const Edge> edges) {
      for (const Edge& e : edges) {
        a[static_cast<size_t>(e.node) * n + j] -= (1.0 - c) * e.weight / norm;
      }
    };
    subtract(g.OutEdges(j));
    if (symmetric) subtract(g.InEdges(j));
  }
  std::vector<double> b(n, 0.0);
  b[v] = c;

  for (size_t k = 0; k < n; ++k) {
    size_t pivot = k;
    for (size_t i = k + 1; i < n; ++i) {
      if (std::fabs(a[i * n + k]) > std::fabs(a[pivot * n + k])) pivot = i;
    }
    if (pivot != k) {
      std::swap_ranges(a.begin() + k * n, a.begin() + (k + 1) * n,
                       a.begin() + pivot * n);
      std::swap(b[k], b[pivot]);
    }
    for (size_t i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] / a[k * n + k];
      if (f == 0.0) continue;
      for (size_t j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      b[i] -= f * b[k];
    }
  }
  std::vector<double> r(n, 0.0);
  for (size_t k = n; k-- > 0;) {
    double sum = b[k];
    for (size_t j = k + 1; j < n; ++j) sum -= a[k * n + j] * r[j];
    r[k] = sum / a[k * n + k];
  }
  return r;
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

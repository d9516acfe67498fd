#include "core/rwr_batch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "obs/obs.h"

// Forces the row-scatter lambda of RwrBatchEngine::Run inline.
#if defined(__GNUC__)
#define COMMSIG_ALWAYS_INLINE __attribute__((always_inline))
#else
#define COMMSIG_ALWAYS_INLINE
#endif

namespace commsig {
namespace {

/// acc[j] += Σ_x |a[x·width + j] − b[x·width + j]| over the listed rows x
/// of a row-major slab, rows ascending in every column — the serial
/// iteration's summation order (the rows left out are zero in both slabs,
/// and a zero term leaves each sum's bits alone). Whole vector blocks
/// accumulate row by row; the remaining columns run one at a time, so each
/// sum stays in a register instead of taking a load-add-store round trip
/// per row, which dominated the dense iterations of batches narrower than
/// a vector.
void AccumAbsDiffRows(double* acc, const double* a, const double* b,
                      std::span<const NodeId> rows, size_t width) {
  const size_t body = width - width % simd::kLanes;
  if (body > 0) {
    for (NodeId x : rows) {
      const size_t row = static_cast<size_t>(x) * width;
      simd::AccumAbsDiff(acc, a + row, b + row, body);
    }
  }
  for (size_t j = body; j < width; ++j) {
    double sum = acc[j];
    for (NodeId x : rows) {
      const size_t cell = static_cast<size_t>(x) * width + j;
      sum += std::fabs(a[cell] - b[cell]);
    }
    acc[j] = sum;
  }
}

/// Writes each column's start distribution into ws.r (unit mass at the
/// source, or the seed normalized to sum 1) and the sorted set of rows
/// holding mass into ws.frontier. Kept out of line so the iteration loop of
/// RwrBatchEngine::Run compiles exactly as it does without seeds.
[[gnu::noinline]] void SeedColumns(
    std::span<const NodeId> sources,
    std::span<const std::span<const Signature::Entry>> seeds,
    size_t num_nodes, RwrBatchWorkspace& ws) {
  const size_t B = sources.size();
  auto add_to_frontier = [&](NodeId x) {
    if (!ws.in_next[x]) {
      ws.in_next[x] = 1;
      ws.frontier.push_back(x);
    }
  };
  for (size_t b = 0; b < B; ++b) {
    COMMSIG_CHECK(sources[b] < num_nodes, "RWR source out of range");
    const std::span<const Signature::Entry> seed =
        seeds.empty() ? std::span<const Signature::Entry>() : seeds[b];
    double total = 0.0;
    for (const Signature::Entry& e : seed) total += e.weight;
    if (total > 0.0) {
      const double inv = 1.0 / total;
      for (const Signature::Entry& e : seed) {
        COMMSIG_CHECK(e.node < num_nodes, "RWR seed node out of range");
        ws.r[static_cast<size_t>(e.node) * B + b] = e.weight * inv;
        add_to_frontier(e.node);
      }
    } else {
      ws.r[static_cast<size_t>(sources[b]) * B + b] = 1.0;
      add_to_frontier(sources[b]);
    }
  }
  std::sort(ws.frontier.begin(), ws.frontier.end());
  for (NodeId x : ws.frontier) ws.in_next[x] = 0;
}

/// Replaces ws.frontier, at the switch to dense scans, with every row that
/// can hold mass for the rest of the solve, ascending: the rows holding it
/// now (ws.frontier ∪ ws.prev_rows), the sources the reset step writes, and
/// every row with an edge in the window, out or in, so a directed walk
/// keeps its in-only sinks. Each iterate after the switch lives on rows the
/// scatter reaches, the sources and the previous iterate's rows, so every
/// other row stays zero in r, next and prev until the solve ends. Builds
/// the list in ws.touched, which is empty between iterations.
void ListDenseRows(const CommGraph& g, std::span<const NodeId> sources,
                   RwrBatchWorkspace& ws) {
  for (NodeId x : ws.frontier) ws.in_next[x] = 1;
  for (NodeId x : ws.prev_rows) ws.in_next[x] = 1;
  for (NodeId v : sources) ws.in_next[v] = 1;
  const size_t n = g.NumNodes();
  for (NodeId x = 0; x < n; ++x) {
    if (ws.in_next[x] || g.OutDegree(x) > 0 || g.InDegree(x) > 0) {
      ws.touched.push_back(x);
    }
    ws.in_next[x] = 0;
  }
  ws.frontier.swap(ws.touched);
  ws.touched.clear();
  ws.prev_rows.clear();
}

}  // namespace

TransitionCache::TransitionCache(const CommGraph& g, TraversalMode mode)
    : graph_(&g), mode_(mode) {
  const size_t n = g.NumNodes();
  norm_.resize(n);
  inv_norm_.resize(n);
  walkable_.resize(n);
  const bool symmetric = mode == TraversalMode::kSymmetric;
  for (NodeId x = 0; x < n; ++x) {
    const double w = g.OutWeight(x) + (symmetric ? g.InWeight(x) : 0.0);
    norm_[x] = w;
    inv_norm_[x] = w > 0.0 ? 1.0 / w : 0.0;
    walkable_[x] = w > 0.0 ? 1 : 0;
    num_walkable_ += walkable_[x];
  }
}

void TransitionCache::Rebase(const CommGraph& new_g,
                             std::span<const NodeId> changed_rows) {
  COMMSIG_CHECK(new_g.NumNodes() == norm_.size(),
                "TransitionCache::Rebase requires a shared node universe");
  graph_ = &new_g;
  const bool symmetric = mode_ == TraversalMode::kSymmetric;
  for (NodeId x : changed_rows) {
    const double w = new_g.OutWeight(x) + (symmetric ? new_g.InWeight(x) : 0.0);
    num_walkable_ -= walkable_[x];
    norm_[x] = w;
    inv_norm_[x] = w > 0.0 ? 1.0 / w : 0.0;
    walkable_[x] = w > 0.0 ? 1 : 0;
    num_walkable_ += walkable_[x];
  }
}

void RwrBatchWorkspace::Prepare(size_t n, size_t width, bool extrapolate) {
  const size_t cells = n * width;
  // Every solve leaves the whole of each buffer zero and uses only its
  // first n·width cells, so a change of width or node count grows the
  // buffers (new cells value-initialize to zero) but never refills them.
  auto grow = [](auto& buffer, size_t size) {
    if (buffer.size() < size) buffer.resize(size);
  };
  grow(r, cells);
  grow(next, cells);
  if (extrapolate) grow(prev, cells);
  grow(in_next, n);
  scale.assign(width, 0.0);
  walked.assign(width, 0.0);
  dangling.assign(width, 0.0);
  delta.assign(width, 0.0);
  last_residual.assign(width, 0.0);
  active.assign(width, 1);
  iterations.assign(width, 0);
  if (lanes.size() < width) lanes.resize(width);
  frontier.clear();
  prev_rows.clear();
  touched.clear();
  dense = false;
}

RwrBatchEngine::RwrBatchEngine(const RwrOptions& opts,
                               const TransitionCache& cache)
    : opts_(opts), cache_(&cache) {
  COMMSIG_CHECK(opts.traversal == cache.mode(),
                "TransitionCache traversal mode does not match RwrOptions");
}

RwrBatchWorkspace& RwrBatchEngine::LocalWorkspace() {
  thread_local RwrBatchWorkspace ws;
  return ws;
}

template <typename Fn>
void RwrBatchEngine::VisitColumn(const RwrBatchWorkspace& ws, size_t width,
                                 size_t b, Fn&& fn) {
  for (NodeId x : ws.frontier) {
    const double val = ws.r[static_cast<size_t>(x) * width + b];
    if (val != 0.0) fn(x, val);
  }
}

template <typename FinalizeCol, typename FinalizeRest>
void RwrBatchEngine::Run(
    std::span<const NodeId> sources,
    std::span<const std::span<const Signature::Entry>> seeds,
    RwrBatchWorkspace& ws, FinalizeCol&& on_converged,
    FinalizeRest&& on_done) const {
  const CommGraph& g = cache_->graph();
  const size_t n = g.NumNodes();
  const size_t B = sources.size();
  if (B == 0 || n == 0) return;

  COMMSIG_SPAN("rwr/batch_solve");
  const double c = opts_.reset;
  const bool symmetric = opts_.traversal == TraversalMode::kSymmetric;
  const bool truncated = opts_.max_hops > 0;
  const size_t max_iters = truncated ? opts_.max_hops : opts_.max_iterations;
  // Frontier bookkeeping stops paying for itself once most rows are live.
  const size_t dense_threshold = n / 4;
  // Chebyshev semi-iteration: a symmetric walk's error lies in a real
  // spectrum inside [-ρ, ρ], ρ = 1 - c, which the three-term recurrence
  // contracts by ≈ 0.63 per step at c = 0.1 against the power step's 0.9.
  // Directed spectra are complex, and at ρ = 1 (c = 0) the recurrence
  // stops contracting.
  const bool chebyshev = !truncated && symmetric && c > 0.0;
  const double rho2 = (1.0 - c) * (1.0 - c);
  double omega = 1.0;

  ws.Prepare(n, B, chebyshev);
  SeedColumns(sources, seeds, n, ws);

  size_t active_count = B;

  // One row of the scatter: mass at x either returns to the sources
  // (dangling) or spreads along x's traversable edges. Rows where only a
  // few columns are live — the common case on early frontier hops, where
  // each row carries mass for one or two sources — and every row of a
  // batch narrower than one vector take a scalar per-column path; rows
  // most columns of a wide batch share take the contiguous B-wide
  // multiply-add, which vectorizes. Either way each column adds the same
  // terms in the same edge order as the serial iteration (bit-identity).
  // Forced inline: as a call, the per-row overhead dominated narrow
  // batches, whose rows carry a single multiply-add per edge.
  auto scatter_row = [&](NodeId x, bool track) COMMSIG_ALWAYS_INLINE {
    const double* mass = &ws.r[static_cast<size_t>(x) * B];
    if (!cache_->walkable(x)) {
      if (B < simd::kLanes) {
        // Narrow batch: per-lane adds that skip empty lanes — a dense
        // scan's listed dangling rows are often empty in every column —
        // instead of a load-add-store round trip per row.
        for (size_t b = 0; b < B; ++b) {
          if (mass[b] != 0.0) ws.dangling[b] += mass[b];
        }
      } else {
        // Accumulating an all-zero row adds 0.0 everywhere — harmless, so
        // no occupancy pre-check is needed on this branch.
        simd::AccumAdd(ws.dangling.data(), mass, B);
      }
      return;
    }
    uint32_t* lanes = ws.lanes.data();
    size_t live = 0;
    for (size_t b = 0; b < B; ++b) {
      if (mass[b] != 0.0) lanes[live++] = static_cast<uint32_t>(b);
    }
    if (live == 0) return;
    const double row_scale = (1.0 - c) * cache_->inv_norm(x);
    if (B < simd::kLanes || live * 2 <= B) {
      // Few live lanes: per-lane scalar work proportional to `live`
      // instead of B. The walked adds skip the all-zero lanes — adding 0.0
      // is an FP identity here, so this matches the full-width path
      // bit-for-bit. Touched-row tracking takes one separate sweep over
      // the edge list (every live lane scatters to the same target rows),
      // which keeps the per-lane scatter loops free of bookkeeping.
      for (size_t i = 0; i < live; ++i) {
        const size_t b = lanes[i];
        ws.walked[b] += mass[b];
        const double scale_b = mass[b] * row_scale;
        double* const col = ws.next.data() + b;
        auto scatter_one = [&](std::span<const Edge> edges) {
          for (const Edge& e : edges) {
            col[static_cast<size_t>(e.node) * B] += scale_b * e.weight;
          }
        };
        scatter_one(g.OutEdges(x));
        if (symmetric) scatter_one(g.InEdges(x));
      }
      if (track) {
        auto mark = [&](std::span<const Edge> edges) {
          for (const Edge& e : edges) {
            if (!ws.in_next[e.node]) {
              ws.in_next[e.node] = 1;
              ws.touched.push_back(e.node);
            }
          }
        };
        mark(g.OutEdges(x));
        if (symmetric) mark(g.InEdges(x));
      }
      return;
    }
    simd::AccumAdd(ws.walked.data(), mass, B);
    simd::ScaleInto(ws.scale.data(), mass, row_scale, B);
    auto scatter_edges = [&](std::span<const Edge> edges) {
      for (const Edge& e : edges) {
        if (track && !ws.in_next[e.node]) {
          ws.in_next[e.node] = 1;
          ws.touched.push_back(e.node);
        }
        double* row = &ws.next[static_cast<size_t>(e.node) * B];
        // 4-wide multiply-add over the column block; strictly elementwise
        // (no FMA, no reassociation), so each column still adds the same
        // terms in the same edge order as the serial path.
        simd::AxpyRow(row, ws.scale.data(), e.weight, B);
      }
    };
    scatter_edges(g.OutEdges(x));
    if (symmetric) scatter_edges(g.InEdges(x));
  };

  // The rows of a slab that may be nonzero: those a sparse iteration
  // tracked, or once dense, the rows ListDenseRows listed.
  auto rows_of = [&](const std::vector<NodeId>& sparse_rows)
      -> const std::vector<NodeId>& {
    return ws.dense ? ws.frontier : sparse_rows;
  };
  auto zero_column = [&](std::vector<double>& slab,
                         const std::vector<NodeId>& rows, size_t b) {
    for (NodeId x : rows) slab[static_cast<size_t>(x) * B + b] = 0.0;
  };
  auto zero_rows = [&](std::vector<double>& slab,
                       const std::vector<NodeId>& rows) {
    for (NodeId x : rows) {
      double* row = &slab[static_cast<size_t>(x) * B];
      for (size_t b = 0; b < B; ++b) row[b] = 0.0;
    }
  };

  size_t sparse_iters = 0, dense_iters = 0, column_iters = 0;
  for (size_t iter = 0; iter < max_iters && active_count > 0; ++iter) {
    if (!ws.dense && ws.frontier.size() > dense_threshold) {
      ListDenseRows(g, sources, ws);
      ws.dense = true;
    }
    // A truncated walk's last step leaves its previous iterate r_{h-1} in
    // `next` for the caller's extraction pass, which marks interior rows.
    const bool keep_prior = truncated && iter + 1 == max_iters;
    column_iters += active_count;
    // ω_1 = 1, ω_2 = 2/(2 − ρ²), ω_{t+1} = 1/(1 − ρ²·ω_t/4).
    if (chebyshev && iter == 1) {
      omega = 2.0 / (2.0 - rho2);
    } else if (chebyshev && iter > 1) {
      omega = 1.0 / (1.0 - rho2 * omega / 4.0);
    }

    std::fill(ws.walked.begin(), ws.walked.end(), 0.0);
    std::fill(ws.dangling.begin(), ws.dangling.end(), 0.0);

    if (ws.dense) {
      ++dense_iters;
      zero_rows(ws.next, ws.frontier);
      for (NodeId x : ws.frontier) scatter_row(x, /*track=*/false);
    } else {
      ++sparse_iters;
      // `next` is all-zero here (maintained below), so the scatter only
      // needs to mark which rows it wrote.
      for (NodeId x : ws.frontier) scatter_row(x, /*track=*/true);
    }

    // Reset mass: c from every walking step plus everything dangling nodes
    // carried, re-injected at each column's own source.
    for (size_t b = 0; b < B; ++b) {
      if (!ws.active[b]) continue;
      const NodeId v = sources[b];
      if (!ws.dense && !ws.in_next[v]) {
        ws.in_next[v] = 1;
        ws.touched.push_back(v);
      }
      ws.next[static_cast<size_t>(v) * B + b] +=
          c * ws.walked[b] + ws.dangling[b];
    }

    if (chebyshev && !ws.dense) {
      // The extrapolated iterate lives on supp(y) ∪ supp(x_{t-1}).
      for (NodeId x : ws.prev_rows) {
        if (!ws.in_next[x]) {
          ws.in_next[x] = 1;
          ws.touched.push_back(x);
        }
      }
    }

    if (!ws.dense) {
      // The scatter order (and therefore bit-identity with the serial
      // ascending scan) requires a sorted frontier. Large touched sets are
      // rebuilt from the in_next bitmask with one sequential O(n) pass,
      // which beats the O(m log m) random-access sort well before m = n/16.
      if (ws.touched.size() > n / 16) {
        ws.touched.clear();
        for (NodeId x = 0; x < n; ++x) {
          if (ws.in_next[x]) ws.touched.push_back(x);
        }
      } else {
        std::sort(ws.touched.begin(), ws.touched.end());
      }
    }

    if (!truncated) {
      // Per-column L1 step change. Outside frontier ∪ touched (once dense,
      // the listed rows) both vectors are zero; walking those rows in
      // ascending order makes the summation order match the serial full
      // scan.
      std::fill(ws.delta.begin(), ws.delta.end(), 0.0);
      if (ws.dense) {
        AccumAbsDiffRows(ws.delta.data(), ws.next.data(), ws.r.data(),
                         ws.frontier, B);
      } else {
        size_t fi = 0, ti = 0;
        while (fi < ws.frontier.size() || ti < ws.touched.size()) {
          NodeId x;
          if (ti >= ws.touched.size() ||
              (fi < ws.frontier.size() && ws.frontier[fi] <= ws.touched[ti])) {
            x = ws.frontier[fi];
            if (ti < ws.touched.size() && ws.touched[ti] == x) ++ti;
            ++fi;
          } else {
            x = ws.touched[ti++];
          }
          const size_t row = static_cast<size_t>(x) * B;
          simd::AccumAbsDiff(ws.delta.data(), &ws.next[row], &ws.r[row], B);
        }
      }
    }

    // r takes the plain step y; `next` holds x_t, on the rows `touched`
    // now lists.
    ws.r.swap(ws.next);
    if (!ws.dense) {
      ws.frontier.swap(ws.touched);
      for (NodeId x : ws.frontier) ws.in_next[x] = 0;
    }

    if (!truncated) {
      // Convergence masking on the plain step, before any extrapolation:
      // finalize finished columns from y and zero them so they drop out of
      // the remaining iterations.
      for (size_t b = 0; b < B; ++b) {
        if (!ws.active[b]) continue;
        ws.last_residual[b] = ws.delta[b];
        ws.iterations[b] = iter + 1;
        if (ws.delta[b] < opts_.tolerance) {
          on_converged(b, ws.delta[b], iter + 1);
          ws.active[b] = 0;
          --active_count;
          zero_column(ws.r, ws.frontier, b);
          if (chebyshev) {
            zero_column(ws.next, rows_of(ws.touched), b);
            zero_column(ws.prev, rows_of(ws.prev_rows), b);
          }
          COMMSIG_HISTOGRAM_OBSERVE("rwr/residual_at_convergence",
                                    ws.delta[b]);
        }
      }
    } else {
      for (size_t b = 0; b < B; ++b) ws.iterations[b] = iter + 1;
    }

    if (chebyshev) {
      // Live columns extrapolate (finished ones are zero in r and prev, so
      // stay zero). The last permitted step is left plain, so a column
      // that runs out of iterations also leaves as y.
      if (iter > 0 && iter + 1 < max_iters && active_count > 0) {
        for (NodeId x : ws.frontier) {
          const size_t row = static_cast<size_t>(x) * B;
          simd::Extrapolate(&ws.r[row], &ws.prev[row], omega, B);
        }
      }
      // prev takes x_t; `next` takes the old prev, zeroed.
      if (!ws.dense) {
        zero_rows(ws.prev, ws.prev_rows);
        ws.prev_rows.swap(ws.touched);
      }
      ws.prev.swap(ws.next);
    } else if (!ws.dense && !keep_prior) {
      // `next` holds x_t: zero its rows to restore the all-zero invariant.
      zero_rows(ws.next, ws.touched);
    }
    if (!ws.dense && !keep_prior) ws.touched.clear();
  }

  // Columns still live after the cap: truncated walks converge by fiat,
  // unbounded ones report their last residual for the caller's fallback
  // ladder. Handed to the caller as one bulk set so it can extract all of
  // them in a single row-major pass instead of B column-strided ones.
  std::vector<size_t> live;
  live.reserve(active_count);
  for (size_t b = 0; b < B; ++b) {
    if (!ws.active[b]) continue;
    live.push_back(b);
    if (!truncated) {
      COMMSIG_HISTOGRAM_OBSERVE("rwr/residual_at_convergence",
                                ws.last_residual[b]);
    }
  }
  on_done(std::span<const size_t>(live));

  // Restore the workspace's all-zero invariant so the next Prepare, at any
  // shape, can skip the O(n·B) refill. Only the frontier rows of r, the
  // prev_rows of prev and, after a truncated walk, the `touched` rows of
  // next (r_{h-1}) are live — every listed row of each once dense; in_next
  // and the rest of next were re-zeroed every iteration.
  zero_rows(ws.r, ws.frontier);
  zero_rows(ws.next, rows_of(ws.touched));
  if (chebyshev) zero_rows(ws.prev, rows_of(ws.prev_rows));
  ws.touched.clear();

  COMMSIG_COUNTER_ADD("rwr/calls", B);
  COMMSIG_COUNTER_ADD("rwr/iterations", column_iters);
  COMMSIG_COUNTER_ADD("rwr/batch_solves", 1);
  COMMSIG_COUNTER_ADD("rwr/batch_sparse_iterations", sparse_iters);
  COMMSIG_COUNTER_ADD("rwr/batch_dense_iterations", dense_iters);
}

std::vector<RwrScheme::RwrSolve> RwrBatchEngine::SolveBatch(
    std::span<const NodeId> sources) const {
  return SolveBatch(sources, LocalWorkspace());
}

std::vector<RwrScheme::RwrSolve> RwrBatchEngine::SolveBatch(
    std::span<const NodeId> sources, RwrBatchWorkspace& ws) const {
  const size_t n = cache_->num_nodes();
  const size_t B = sources.size();
  const bool truncated = opts_.max_hops > 0;
  std::vector<RwrScheme::RwrSolve> solves(B);
  auto extract = [&](size_t b, bool converged, double residual, size_t iters) {
    RwrScheme::RwrSolve& s = solves[b];
    s.probabilities.assign(n, 0.0);
    VisitColumn(ws, B, b,
                [&](NodeId x, double val) { s.probabilities[x] = val; });
    s.converged = converged;
    s.residual = residual;
    s.iterations = iters;
  };
  Run(sources, {}, ws,
      [&](size_t b, double residual, size_t iters) {
        extract(b, /*converged=*/true, residual, iters);
      },
      [&](std::span<const size_t> live) {
        for (size_t b : live) {
          extract(b, /*converged=*/truncated,
                  truncated ? 0.0 : ws.last_residual[b], ws.iterations[b]);
        }
      });
  return solves;
}

void RwrBatchEngine::SolveBatchSelect(
    std::span<const NodeId> sources, RwrBatchWorkspace& ws,
    std::span<RwrColumnSink> sinks, std::vector<uint8_t>& converged,
    std::span<const std::span<const Signature::Entry>> seeds) const {
  COMMSIG_CHECK(seeds.empty() || seeds.size() == sources.size(),
                "RWR seeds must be empty or one per source");
  COMMSIG_CHECK(sinks.size() == sources.size(),
                "RWR sinks must be one per source");
  const size_t B = sources.size();
  const bool truncated = opts_.max_hops > 0;
  converged.assign(B, 0);
  Run(sources, seeds, ws,
      [&](size_t b, double /*residual*/, size_t /*iters*/) {
        VisitColumn(ws, B, b, [&](NodeId x, double val) {
          sinks[b].Offer(x, val, /*interior=*/true);
        });
        converged[b] = 1;
      },
      [&](std::span<const size_t> live) {
        // Every still-live column in one row-major pass: the state slab is
        // traversed in memory order once instead of once per column with a
        // B-double stride.
        for (NodeId x : ws.frontier) {
          const double* row = &ws.r[static_cast<size_t>(x) * B];
          const double* prior = &ws.next[static_cast<size_t>(x) * B];
          for (size_t b : live) {
            if (row[b] != 0.0) {
              sinks[b].Offer(x, row[b], !truncated || prior[b] != 0.0);
            }
          }
        }
        for (size_t b : live) converged[b] = truncated ? 1 : 0;
      });
}

}  // namespace commsig

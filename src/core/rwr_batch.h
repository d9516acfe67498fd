#ifndef COMMSIG_CORE_RWR_BATCH_H_
#define COMMSIG_CORE_RWR_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/rwr.h"
#include "core/signature.h"
#include "graph/comm_graph.h"

namespace commsig {

/// Per-(graph, traversal-mode) precomputation shared by every RWR solve on
/// the same window: the row normalizers of the transition matrix P and the
/// walkable/dangling node partition. Building it is one O(n) pass; the
/// per-source paths used to re-derive it on every call, which made an
/// all-hosts sweep pay n× redundant setup.
///
/// Safe to share across threads between mutations; the referenced graph
/// must outlive the cache. Rebase() is the only mutator — sliding-window
/// callers use it to carry the cache to the next window for O(changed)
/// instead of O(n) per-window setup.
class TransitionCache {
 public:
  TransitionCache(const CommGraph& g, TraversalMode mode);

  /// Re-points the cache at `new_g` (same node universe) and recomputes
  /// the normalizers of `changed_rows` only. `changed_rows` must cover
  /// every node whose out-row (or, for symmetric traversals, in-row)
  /// differs between the old and new graph — GraphDelta::changed_row_nodes
  /// is such a cover. Afterwards the cache is indistinguishable from one
  /// freshly built on `new_g`.
  void Rebase(const CommGraph& new_g, std::span<const NodeId> changed_rows);

  const CommGraph& graph() const { return *graph_; }
  TraversalMode mode() const { return mode_; }

  /// Total traversable weight of `x` (out-weight, plus in-weight when the
  /// traversal is symmetric) — the row normalizer of P.
  double norm(NodeId x) const { return norm_[x]; }

  /// 1 / norm(x) (0 for dangling rows), precomputed so the power-iteration
  /// inner loops multiply instead of divide — divisions were the single
  /// largest arithmetic cost of a sweep. The engine and the serial test
  /// oracle (ref::RwrSolve) both scale by this, keeping their results
  /// bit-identical to each other.
  double inv_norm(NodeId x) const { return inv_norm_[x]; }

  /// True iff `x` has traversable edges. Walks at non-walkable (dangling)
  /// nodes return their mass to the start node.
  bool walkable(NodeId x) const { return walkable_[x] != 0; }

  size_t num_nodes() const { return norm_.size(); }
  size_t num_walkable() const { return num_walkable_; }
  size_t num_dangling() const { return norm_.size() - num_walkable_; }

 private:
  const CommGraph* graph_;
  TraversalMode mode_;
  std::vector<double> norm_;
  std::vector<double> inv_norm_;
  std::vector<uint8_t> walkable_;
  size_t num_walkable_ = 0;
};

/// Reusable scratch for RwrBatchEngine's solves. All buffers grow to the
/// high-water mark and are recycled across batches: every solve restores
/// the "r/next/prev/in_next all-zero" invariant on exit over the whole
/// buffer, and reads and writes only its first n·B cells, so neither a
/// steady-state sweep nor a change of batch width or node count performs
/// per-batch allocation or O(n·B) zero-fills. Obtain one per thread via
/// RwrBatchEngine::LocalWorkspace().
struct RwrBatchWorkspace {
  std::vector<double> r;     // n × B iterate x_t, node-major (row x is B-wide)
  std::vector<double> next;  // n × B scatter target: the plain power step y
  // n × B iterate x_{t-1} of the Chebyshev recurrence; sized only by
  // solves that extrapolate (unbounded, symmetric, c > 0).
  std::vector<double> prev;
  std::vector<double> scale, walked, dangling, delta, last_residual;  // B
  std::vector<uint8_t> active;   // B: column still iterating
  std::vector<uint8_t> in_next;  // n: row already touched this iteration
  // Ascending rows outside which r is zero: while sparse, the rows where
  // it is nonzero; once dense, every row that can hold mass for the rest
  // of the solve (the window's rows with an edge, the sources and the rows
  // holding mass at the switch), outside which next and prev are zero too.
  std::vector<NodeId> frontier;
  std::vector<NodeId> prev_rows;  // sparse: sorted rows where prev is nonzero
  std::vector<NodeId> touched;   // sparse: rows written this iteration
  std::vector<uint32_t> lanes;   // scratch: live column indices of one row
  std::vector<size_t> iterations;  // B: iterations run per column
  bool dense = false;  // frontier fixed to the listed rows for this solve

  /// Grows the slabs to at least n·width cells (`prev` only when
  /// `extrapolate`) and `in_next` to n, never refilling them: the all-zero
  /// invariant covers every cell.
  void Prepare(size_t n, size_t width, bool extrapolate);
};

/// One column of an RwrBatchEngine::SolveBatchSelect batch. The engine's
/// extraction pass offers it each nonzero entry of the column's final
/// vector once, ascending by node id. Offer applies Definition 1's
/// candidate filter on the way into the top-k selection and, when
/// `support` is set, appends the entry to the caller's warm support.
struct RwrColumnSink {
  explicit RwrColumnSink(size_t k) : top(k) {}

  /// `interior` is true for every entry of an unbounded walk and, for a
  /// truncated RWR^h walk, exactly where its previous iterate r_{h−1} is
  /// nonzero — with c > 0 the (h−1)-hop ball, the rows its h steps read.
  void Offer(NodeId x, double p, bool interior) {
    if (support != nullptr && (interior || !interior_only)) {
      support->push_back({x, p});
    }
    if (x != focal && x >= lo && x < hi) top.Offer({x, p});
  }

  Signature::TopKSelector top;
  /// The candidates: nodes in [lo, hi) other than `focal`.
  NodeId focal = kInvalidNode;
  NodeId lo = 0;
  NodeId hi = kInvalidNode;
  /// When non-null, receives the column's entries (interior ones only when
  /// `interior_only`), ascending by node id.
  std::vector<Signature::Entry>* support = nullptr;
  bool interior_only = false;
};

/// Batched multi-source RWR solver: iterates B source columns simultaneously
/// as one SpMM-style pass over the CSR adjacency, so each graph scan is
/// amortized over B sources and the per-edge inner loop is a contiguous
/// B-wide multiply-add that vectorizes.
///
/// Two sparsity levers on top of the blocking:
///  - frontier-sparse iteration: only rows holding nonzero mass (for any
///    column) are visited, which collapses the cost of RWR^h hops 1–2 and
///    of the early unbounded iterations on large windows. Once the
///    frontier covers more than a quarter of the nodes the engine stops
///    tracking it (and stays dense — RWR mass never re-sparsifies): it
///    lists, once, every row that can still hold mass — each row with an
///    edge in the window, each source and each row holding mass at the
///    switch — and sweeps only those, so a dense iteration costs the
///    window's rows × B, not the node universe's.
///  - per-column convergence masking: a converged column's result is
///    extracted and the column zeroed, so finished sources drop out of the
///    remaining iterations instead of being recomputed to the slowest
///    column's horizon.
///
/// Unbounded walks under symmetric traversal with c > 0 accelerate by
/// Chebyshev semi-iteration: the next iterate is ω·(y − x_{t−1}) + x_{t−1},
/// with y the plain power step from x_t and ω a schedule indexed by the
/// solve's iteration count alone (never by n or the sparse→dense switch).
/// Each column tests convergence on the plain step, ‖y − x_t‖₁ <
/// tolerance, before any extrapolation and is finalized from y, so no
/// extrapolated vector leaves the engine. Directed walks, c = 0 and
/// truncated RWR^h walks run the plain power iteration (ω = 1).
///
/// This is the only RWR iteration: RwrScheme's sweeps, warm starts and
/// single-source solves (a batch of one) all run on it. Per column it adds
/// the same terms in the same order as the serial iteration of Definition 5
/// (the test oracle ref::RwrSolve, which shares the recurrence): results
/// are bit-identical to it for truncated RWR^h walks at every batch width
/// and for unbounded walks at width 1, and match within solver tolerance
/// for wider unbounded batches.
class RwrBatchEngine {
 public:
  /// Number of source columns a batch window holds by default. Wide enough
  /// to amortize the graph scan and fill vector lanes, small enough that
  /// the n × B state of a 20k-node window stays cache-resident.
  static constexpr size_t kDefaultBatchWidth = 16;

  /// `cache` must outlive the engine and must have been built with
  /// `opts.traversal` (checked).
  RwrBatchEngine(const RwrOptions& opts, const TransitionCache& cache);

  /// Solves all sources as one block power iteration. `solves[i]` is
  /// index-aligned with `sources[i]`; duplicate sources are allowed.
  /// Memory is O(n · sources.size()), so callers should window large
  /// populations (kDefaultBatchWidth at a time) rather than pass them
  /// whole.
  std::vector<RwrScheme::RwrSolve> SolveBatch(std::span<const NodeId> sources,
                                              RwrBatchWorkspace& ws) const;

  /// Convenience overload using the calling thread's reusable workspace.
  std::vector<RwrScheme::RwrSolve> SolveBatch(
      std::span<const NodeId> sources) const;

  /// Sweep entry point: solves the batch and hands column b's final vector
  /// to sinks[b] (index-aligned with `sources`) in one extraction pass:
  /// each nonzero entry once, ascending by node id, never densified into
  /// an O(n) vector. A truncated walk marks the entries where its previous
  /// iterate r_{h−1} is nonzero as interior; it reads r_{h−1} there before
  /// zeroing it. `converged[b]` reports per-column convergence (always
  /// true for truncated walks) for the caller's fallback ladder; an
  /// unconverged column is still handed its last plain step. `converged`
  /// is cleared and refilled, so callers can reuse it across batches.
  ///
  /// `seeds` is empty or index-aligned with `sources`. A non-empty
  /// seeds[b] — a sparse (node, mass) support ascending by node id, such
  /// as a previous solve's output — is normalized to sum 1 and replaces
  /// column b's unit start at its source (the incremental warm start); an
  /// empty one keeps the unit start. Seeds are read before any sink is
  /// offered an entry.
  void SolveBatchSelect(
      std::span<const NodeId> sources, RwrBatchWorkspace& ws,
      std::span<RwrColumnSink> sinks, std::vector<uint8_t>& converged,
      std::span<const std::span<const Signature::Entry>> seeds = {}) const;

  /// The calling thread's lazily constructed scratch workspace
  /// (thread_local, so never shared; the reference must not be handed to
  /// another thread — it dangles when this thread exits).
  static RwrBatchWorkspace& LocalWorkspace();

  const RwrOptions& options() const { return opts_; }

 private:
  /// Shared block power iteration from the start distributions `seeds`
  /// describes (see SolveBatchSelect). on_converged(b, residual, iterations)
  /// fires when a column meets tolerance and is masked out (column b of
  /// ws.r is readable through VisitColumn at that point); on_done(live)
  /// fires once after the iteration cap with the still-live column indices
  /// (their state readable in bulk — residuals/iterations via the
  /// workspace arrays; for truncated walks ws.next still holds r_{h−1}).
  /// Restores the workspace's all-zero invariant before returning.
  template <typename FinalizeCol, typename FinalizeRest>
  void Run(std::span<const NodeId> sources,
           std::span<const std::span<const Signature::Entry>> seeds,
           RwrBatchWorkspace& ws, FinalizeCol&& on_converged,
           FinalizeRest&& on_done) const;

  /// Invokes fn(node, probability) for each nonzero entry of column b,
  /// ascending by node id.
  template <typename Fn>
  static void VisitColumn(const RwrBatchWorkspace& ws, size_t width, size_t b,
                          Fn&& fn);

  RwrOptions opts_;
  const TransitionCache* cache_;
};

}  // namespace commsig

#endif  // COMMSIG_CORE_RWR_BATCH_H_

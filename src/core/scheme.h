#ifndef COMMSIG_CORE_SCHEME_H_
#define COMMSIG_CORE_SCHEME_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/signature.h"
#include "graph/comm_graph.h"

namespace commsig {

class GraphDelta;

/// The paper's three fundamental signature properties (Definition 2).
enum class SignatureProperty {
  kPersistence,
  kUniqueness,
  kRobustness,
};

/// Communication-graph characteristics a scheme can exploit (Section III).
enum class GraphCharacteristic {
  kEngagement,    // edge weight / communication strength
  kNovelty,       // low in-degree neighbours are more discriminating
  kLocality,      // nearby nodes are more relevant
  kTransitivity,  // many connecting paths imply closeness
};

/// Requirement level in the paper's Table I.
enum class Requirement { kLow, kMedium, kHigh };

/// One row of Table I: which property levels an application needs.
struct ApplicationRequirement {
  std::string_view application;
  Requirement persistence;
  Requirement uniqueness;
  Requirement robustness;
};

/// The paper's Table I (application -> property requirements).
std::span<const ApplicationRequirement> ApplicationRequirements();

/// One row of Table II: characteristic -> properties it supports.
struct CharacteristicLink {
  GraphCharacteristic characteristic;
  std::vector<SignatureProperty> properties;
};

/// The paper's Table II.
const std::vector<CharacteristicLink>& CharacteristicLinks();

/// Per-scheme metadata mirroring Table III: the characteristics a scheme
/// exploits and the properties it is therefore expected to deliver.
struct SchemeTraits {
  std::vector<GraphCharacteristic> characteristics;
  std::vector<SignatureProperty> properties;
};

/// Options common to all signature schemes.
struct SchemeOptions {
  /// Signature length: the (at most) k highest-relevance nodes are kept
  /// (paper Definition 1). The paper uses k = 10 on flow data, k = 3 on
  /// query logs — half the mean focal out-degree.
  size_t k = 10;

  /// For bipartite graphs, restrict signature members to the partition
  /// opposite the focal node (the paper's V1 -> V2 restriction). Ignored
  /// for non-bipartite graphs.
  bool restrict_to_opposite_partition = false;
};

/// Opaque scheme-owned warm state threaded through consecutive
/// IncrementalComputeAll calls (e.g. RWR stationary-vector supports). The
/// caller keeps one slot per (scheme, focal set) sequence and never
/// inspects it; resetting to nullptr forces the next call to re-prime.
class IncrementalState {
 public:
  virtual ~IncrementalState() = default;

  IncrementalState() = default;
  IncrementalState(const IncrementalState&) = delete;
  IncrementalState& operator=(const IncrementalState&) = delete;
};

/// Interface implemented by every signature scheme (TT, UT, RWR, ...).
///
/// A scheme maps (window graph, focal node) -> Signature. Schemes are
/// stateless with respect to graphs: the same scheme object can be applied
/// to every window of a data set.
class SignatureScheme {
 public:
  explicit SignatureScheme(SchemeOptions options) : options_(options) {}
  virtual ~SignatureScheme() = default;

  SignatureScheme(const SignatureScheme&) = delete;
  SignatureScheme& operator=(const SignatureScheme&) = delete;

  /// Short spec-style name, e.g. "tt", "ut", "rwr(c=0.1,h=3)".
  virtual std::string name() const = 0;

  /// Table III metadata for this scheme.
  virtual SchemeTraits traits() const = 0;

  /// Computes the signature of `v` in `g`. `v` must be < g.NumNodes().
  virtual Signature Compute(const CommGraph& g, NodeId v) const = 0;

  /// Computes signatures for a set of focal nodes (the enterprise-data
  /// "local hosts"). The default loops over Compute; schemes whose
  /// per-source work shares expensive state override it with a batched
  /// implementation (RwrScheme amortizes one graph scan over a window of
  /// sources), so all-population sweeps should prefer this entry point.
  virtual std::vector<Signature> ComputeAll(const CommGraph& g,
                                            std::span<const NodeId> nodes) const;

  /// Window-transition sweep: computes the signatures of `nodes` on `g`
  /// given the signatures they had on the previous window (`previous`,
  /// index-aligned with `nodes`) and the structural diff between the two
  /// windows (`delta`, built from the previous window's graph and `g`).
  /// Passing delta == nullptr (or a mismatched `previous`) primes the
  /// sequence: a full ComputeAll that also initializes `state`. `state` is
  /// the scheme's opaque warm state — thread the same slot through every
  /// transition of one window sequence and through nothing else.
  ///
  /// The default recomputes exactly the LocalDirty focal nodes (out-row
  /// changed, or an out-neighbour's in-degree changed) and reuses every
  /// clean Signature — bit-identical to ComputeAll for any scheme
  /// whose signature reads only the focal out-row and its endpoints'
  /// in-degrees (TT narrows the rule; UT uses it as-is). Schemes with
  /// global dependence (RWR, rwr-push) MUST override: the base rule is
  /// wrong for them. Reuse/recompute volumes are counted under
  /// `timeline/nodes_reused` / `timeline/nodes_dirty`.
  ///
  /// `previous` is taken by value so clean signatures are *moved* into the
  /// result, not copied — a reuse must cost O(1), or high-overlap sweeps
  /// of cheap schemes would spend their savings on allocation. Callers that
  /// still need the previous window's signatures pass an explicit copy.
  virtual std::vector<Signature> IncrementalComputeAll(
      const CommGraph& g, std::span<const NodeId> nodes,
      const GraphDelta* delta, std::vector<Signature> previous,
      std::unique_ptr<IncrementalState>& state) const;

  const SchemeOptions& options() const { return options_; }

 protected:
  /// Shared skeleton for dirty-set incremental sweeps: recomputes the nodes
  /// `is_dirty` flags (batched through ComputeAll, so schemes with batched
  /// sweeps keep their amortization) and moves `previous` through for the
  /// rest, maintaining the timeline/* counters.
  std::vector<Signature> RecomputeDirty(
      const CommGraph& g, std::span<const NodeId> nodes,
      std::vector<Signature> previous,
      const std::function<bool(NodeId)>& is_dirty) const;

  /// Definition-1 candidate filter: rejects the focal node itself and, when
  /// requested and the graph is bipartite, nodes in the focal node's own
  /// partition.
  bool KeepCandidate(const CommGraph& g, NodeId focal, NodeId candidate) const;

  SchemeOptions options_;
};

/// How UnexpectedTalkers scales down universally popular destinations.
enum class UtWeighting {
  /// w_ij = C[i,j] / |I(j)| (paper Definition 4).
  kInverseInDegree,
  /// w_ij = C[i,j] * log(|V| / |I(j)|) — the TF-IDF analogue the paper
  /// mentions; reported to behave very similarly.
  kTfIdf,
};

/// How a random walk traverses directed edges.
enum class TraversalMode {
  /// Follow out-edges only.
  kDirected,
  /// Treat every edge as traversable in both directions. This is the mode
  /// that makes multi-hop walks meaningful on one-way monitored traces
  /// (e.g. enterprise data where only local->external flows are captured):
  /// the walk alternates local -> external -> other local -> ...
  kSymmetric,
};

/// Parameters of the Random Walk with Resets scheme (Definition 5).
struct RwrOptions {
  /// Reset (teleport) probability c. The paper evaluates c = 0.1 and notes
  /// that c -> 0.9 collapses RWR onto TT.
  double reset = 0.1;

  /// Hop bound h: run exactly this many power-iteration steps (RWR^h).
  /// 0 means unbounded — iterate to convergence (full RWR).
  size_t max_hops = 0;

  /// Convergence threshold on the L1 change of the plain power step,
  /// ‖y − x‖₁ with y the power step from the current iterate x, used only
  /// when max_hops == 0. A column that passes is reported as y, which then
  /// lies within (1 - reset) / reset · tolerance of the steady state in L1.
  double tolerance = 1e-10;

  /// Iteration cap for the unbounded walk. A directed walk contracts by
  /// (1 - reset) per iteration, so reaching `tolerance` needs roughly
  /// ln(tolerance) / ln(1 - reset) iterations — about 220 at the defaults.
  /// Symmetric walks with reset > 0 run Chebyshev semi-iteration and need
  /// about a quarter of that (~56 at the defaults on flow windows). The cap
  /// must stay above the directed figure or directed walks can never
  /// converge and the fallback ladder fires on every call.
  size_t max_iterations = 500;

  /// Degradation ladder: when the unbounded walk hits max_iterations
  /// without meeting `tolerance`, Compute falls back to the truncated
  /// RWR^h walk with this hop bound instead of silently using the
  /// unconverged vector. 0 disables the fallback (the unconverged vector
  /// is used as-is). Fallbacks are counted under `robust/rwr_fallbacks`.
  size_t fallback_hops = 4;

  TraversalMode traversal = TraversalMode::kSymmetric;

  /// Incremental sweeps (IncrementalComputeAll) with reset > 0: a focal
  /// node's previous signature is reused while its accumulated drift-bound
  /// estimate — sum over its stored stationary support of occupancy mass
  /// times the changed rows' normalized-transition L1 drift, scaled by the
  /// walk's geometric amplification factor — stays at or below this L1
  /// bound. An RWR^h support holds only the (h−1)-hop ball the walk reads;
  /// an unbounded one, every entry. 0 disables reuse for nodes whose
  /// support touches a changed row; nodes whose support touches none
  /// estimate exactly 0 and are reused at any setting. reset = 0 walks
  /// ignore the bound: they reuse only across windows that change no
  /// transition row. See DESIGN.md §11 for the bound.
  double incremental_max_drift = 1e-6;

  /// Unbounded walks whose drift estimate exceeds incremental_max_drift
  /// but stays at or below this limit are warm-started: the node's column
  /// in the batched re-solve is seeded with its previous stationary
  /// support, so it pays ~ln(drift/tolerance) contraction steps instead of
  /// ~ln(1/tolerance). Above the limit the column starts cold, and a
  /// seeded column that fails to converge is re-solved cold; both count
  /// under `timeline/rwr_warm_start_fallbacks`.
  double incremental_warm_drift = 0.25;
};

/// Factory helpers.
std::unique_ptr<SignatureScheme> MakeTopTalkers(SchemeOptions options);
std::unique_ptr<SignatureScheme> MakeUnexpectedTalkers(
    SchemeOptions options, UtWeighting weighting = UtWeighting::kInverseInDegree);
std::unique_ptr<SignatureScheme> MakeRwr(SchemeOptions options,
                                         RwrOptions rwr_options);

/// Creates a scheme from a spec string, as used by the benchmark binaries
/// and the CLI:
///   "tt" | "ut" | "ut-tfidf" | "rwr(c=C)" | "rwr(c=C,h=H)"
///   | "rwr-push(c=C,eps=E)"
/// rwr specs also accept "mode=directed|symmetric".
/// Returns InvalidArgument for unknown specs or malformed parameters.
Result<std::unique_ptr<SignatureScheme>> CreateScheme(std::string_view spec,
                                                      SchemeOptions options);

}  // namespace commsig

#endif  // COMMSIG_CORE_SCHEME_H_

#ifndef COMMSIG_EVAL_TIMELINE_H_
#define COMMSIG_EVAL_TIMELINE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/stats.h"
#include "core/distance.h"
#include "core/scheme.h"
#include "core/signature.h"
#include "graph/comm_graph.h"

namespace commsig {

/// Multi-window evaluation helpers. The paper computes its properties on
/// one window transition and notes that "over all different time periods
/// we observed very similar results" and that "signatures that exhibit
/// higher persistence over a longer term will be more effective at
/// detecting anomalies" — these helpers make both statements measurable.

/// Mean/stddev of per-node persistence at each transition (t -> t+1)
/// across the horizon. `per_window[w][i]` is focal node i's signature in
/// window w; all windows must be index-aligned.
struct TransitionStats {
  size_t from_window = 0;
  double mean_persistence = 0.0;
  double std_persistence = 0.0;
};
std::vector<TransitionStats> PersistencePerTransition(
    const std::vector<std::vector<Signature>>& per_window,
    SignatureDistance dist);

/// Lag sweep: mean persistence 1 - Dist(σ_t(v), σ_{t+lag}(v)) pooled over
/// all valid t, for lag = 1 .. max_lag. Decaying slowly in lag = the
/// "long-term persistence" that anomaly detection wants.
struct LagStats {
  size_t lag = 0;
  double mean_persistence = 0.0;
  double std_persistence = 0.0;
  size_t samples = 0;
};
std::vector<LagStats> PersistenceByLag(
    const std::vector<std::vector<Signature>>& per_window,
    SignatureDistance dist, size_t max_lag);

/// Computes `per_window[w][i]` = signature of nodes[i] in windows[w] — the
/// input shape the persistence helpers above consume. The sweep rides
/// IncrementalSignatureEngine, so consecutive windows pay only for their
/// dirty nodes; its output equals per-window ComputeAll (the from-scratch
/// reference the equivalence tests and the speedup bench compare against).
std::vector<std::vector<Signature>> ComputeSignatureTimeline(
    const SignatureScheme& scheme, std::span<const CommGraph> windows,
    std::span<const NodeId> nodes);

}  // namespace commsig

#endif  // COMMSIG_EVAL_TIMELINE_H_

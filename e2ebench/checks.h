#ifndef COMMSIG_E2EBENCH_CHECKS_H_
#define COMMSIG_E2EBENCH_CHECKS_H_

// Output checks of the end-to-end benchmark. They run outside the timed
// region, on a separate pass over the same input, and every failed check
// counts toward the run's error rate.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/masquerade_detector.h"
#include "apps/multiusage.h"
#include "common/interner.h"
#include "core/distance.h"
#include "core/scheme.h"
#include "graph/comm_graph.h"
#include "graph/windower.h"
#include "workloads.h"

namespace commsig::e2e {

/// Checks run and failed, with the first few failures described.
struct CheckTally {
  static constexpr size_t kDescribed = 8;

  uint64_t run = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_failures;

  /// `describe()` returns the failure's text; it is only called on failure.
  template <typename Describe>
  void Expect(bool ok, Describe&& describe) {
    ++run;
    if (ok) return;
    ++failed;
    if (first_failures.size() < kDescribed) {
      first_failures.push_back(describe());
    }
  }
};

/// The apps each window runs, with the CLI's default settings.
MultiusageDetector MakeMultiusageDetector(SignatureDistance dist);
MasqueradeDetector MakeMasqueradeDetector(SignatureDistance dist);

/// One window's pipeline outputs, per scheme (index-aligned with the
/// workload's scheme list). `masquerade` is empty for window 0.
struct WindowOutputs {
  std::vector<const std::vector<Signature>*> signatures;
  std::vector<std::vector<MultiusagePair>> multiusage;
  std::vector<MasqueradeDetection> masquerade;
};

/// The check pass's hooks into the pipeline, called in pipeline order. It
/// runs every output check against the generator's own records and the
/// from-scratch schemes, and measures the workload properties the report
/// prints.
class CheckObserver {
 public:
  CheckObserver(const WorkloadSpec& spec, Scale scale, uint64_t seed);

  /// Ingest check: the reader's events, aggregated per (src, dst, bucket)
  /// under the generator's node ids, equal the generator's records. One
  /// check per reference key plus one per key the reader produced that the
  /// generator never wrote. Uses labels only, never the library's readers.
  void OnIngested(const std::vector<TraceEvent>& events,
                  const Interner& interner);

  /// Window check: every edge of windows [0, count) carries the
  /// generator's weight summed over the buckets the window covers, and each
  /// window has exactly the edges the generator's records imply. Also fixes
  /// the schemes and focal set the per-window checks use.
  void OnWindows(std::span<const CommGraph> windows, size_t count,
                 const Interner& interner, const std::vector<NodeId>& focal,
                 const std::vector<const SignatureScheme*>& schemes);

  /// Compares the next window's incremental signatures with a from-scratch
  /// ComputeAll (TT/UT bit-identical; RWR within incremental_max_drift plus
  /// solver tolerance), and its apps' outputs with the apps rerun on the
  /// from-scratch signatures.
  void OnWindow(const CommGraph& g, const WindowOutputs& out);

  const CheckTally& ingest() const { return ingest_; }
  const CheckTally& windows() const { return windows_; }
  const CheckTally& outputs() const { return outputs_; }
  uint64_t checks_run() const {
    return ingest_.run + windows_.run + outputs_.run;
  }
  uint64_t checks_failed() const {
    return ingest_.failed + windows_.failed + outputs_.failed;
  }

  /// Mean over windows of the share of focal nodes whose signature equals
  /// another focal node's, per scheme (the dedup potential of pairwise
  /// sweeps).
  std::vector<double> DuplicateShares() const;
  const std::vector<double>& events_per_window() const {
    return events_per_window_;
  }
  const std::vector<double>& edges_per_window() const {
    return edges_per_window_;
  }
  double windows_per_event() const { return windows_per_event_; }
  size_t focal_nodes() const { return focal_.size(); }

 private:
  const WorkloadSpec& spec_;
  Reference ref_;
  SignatureDistance dist_;
  double rwr_epsilon_;
  std::vector<const SignatureScheme*> schemes_;
  std::vector<NodeId> focal_;
  CheckTally ingest_, windows_, outputs_;
  size_t window_ = 0;
  std::vector<std::vector<Signature>> prev_scratch_;
  std::vector<double> duplicate_share_sum_;
  std::vector<double> events_per_window_, edges_per_window_;
  double windows_per_event_ = 0.0;
};

}  // namespace commsig::e2e

#endif  // COMMSIG_E2EBENCH_CHECKS_H_

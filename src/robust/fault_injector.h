#ifndef COMMSIG_ROBUST_FAULT_INJECTOR_H_
#define COMMSIG_ROBUST_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/windower.h"

namespace commsig {

/// Seeded, deterministic fault injection for robustness testing: perturbs
/// event streams the way a lossy collector or a flaky NIC would. The same
/// seed always produces the same faults, so `commsig faultcheck` runs and
/// the fault-injection tests are exactly reproducible.
class FaultInjector {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Per-event probabilities; each event suffers at most one fault
    /// (checked in the order listed, first hit wins).
    double p_drop = 0.0;            // event silently lost
    double p_duplicate = 0.0;       // event delivered twice
    double p_corrupt_weight = 0.0;  // weight replaced (NaN/Inf/negative/huge)
    double p_corrupt_time = 0.0;    // timestamp perturbed (incl. regression)
    double p_swap = 0.0;            // event swapped with its successor
  };

  /// Per-run tally of injected faults, for reporting and assertions.
  struct Report {
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    uint64_t weights_corrupted = 0;
    uint64_t times_corrupted = 0;
    uint64_t swapped = 0;

    uint64_t Total() const {
      return dropped + duplicated + weights_corrupted + times_corrupted +
             swapped;
    }
    std::string ToString() const;
  };

  explicit FaultInjector(Options options);

  /// Returns a perturbed copy of `events`. The input is untouched; the
  /// report accumulates across calls.
  std::vector<TraceEvent> PerturbEvents(const std::vector<TraceEvent>& events);

  const Report& report() const { return report_; }

 private:
  Options options_;
  Rng rng_;
  Report report_;
};

}  // namespace commsig

#endif  // COMMSIG_ROBUST_FAULT_INJECTOR_H_

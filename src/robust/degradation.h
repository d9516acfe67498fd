#ifndef COMMSIG_ROBUST_DEGRADATION_H_
#define COMMSIG_ROBUST_DEGRADATION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/health.h"

namespace commsig {

/// Load-shedding tiers, ordered from healthy to maximally degraded. Each
/// tier includes every cheaper tier's shedding:
///
///   0 kOk                full service
///   1 kShedTracing       tracing spans dropped (observability pays first)
///   2 kWidenCheckpoints  checkpoint/telemetry cadence stretched
///   3 kSketchOnly        RWR warm-starts abandoned; sketch-backed TT/UT
///                        schemes only (the cheapest defined approximation)
enum class DegradationTier : int {
  kOk = 0,
  kShedTracing = 1,
  kWidenCheckpoints = 2,
  kSketchOnly = 3,
};

/// Stable snake_case name ("ok", "shed_tracing", "widen_checkpoints",
/// "sketch_only") — used in /healthz details, log events and metrics.
std::string_view DegradationTierName(DegradationTier tier);

/// Overload/fault controller for the stream runtime. Consumers report a
/// signal per epoch — failure (IO retry exhaustion), overload (epoch
/// budget blown), or healthy — and the controller walks the tier
/// ladder: `escalate_after` consecutive bad signals step one tier up,
/// `recover_after` consecutive healthy signals step one tier down. Every
/// transition emits a structured `degradation_transition` log event, sets
/// the `robust/degradation_tier` gauge, and publishes the tier into the
/// obs HealthRegistry under `component` (tiers 1-2 map to degraded, tier 3
/// to critical), which /healthz serves live.
///
/// Not thread-safe: one controller per single-threaded supervisor loop.
class DegradationController {
 public:
  struct Options {
    /// Consecutive bad signals that step the ladder one tier up.
    uint32_t escalate_after = 3;
    /// Consecutive healthy signals that step it one tier back down.
    uint32_t recover_after = 8;
    /// Checkpoint/telemetry cadence multiplier at tier >= 2.
    uint64_t checkpoint_stretch = 4;
    /// HealthRegistry component name.
    std::string component = "stream";
  };

  // Two overloads instead of one defaulted argument: GCC rejects `= {}`
  // here because Options' member initializers aren't complete yet at this
  // point of the enclosing class.
  DegradationController();
  explicit DegradationController(Options options);

  /// A hard failure signal (exhausted IO retries).
  void ReportFailure(std::string_view reason);
  /// An overload signal (epoch budget blown).
  void ReportOverload(std::string_view reason);
  /// A clean epoch.
  void ReportHealthy();

  DegradationTier tier() const { return tier_; }
  obs::HealthLevel health() const;

  /// Tier effects, read by the supervisor each epoch.
  bool shed_tracing() const { return tier_ >= DegradationTier::kShedTracing; }
  uint64_t checkpoint_stretch() const {
    return tier_ >= DegradationTier::kWidenCheckpoints
               ? options_.checkpoint_stretch
               : 1;
  }
  bool sketch_only() const { return tier_ >= DegradationTier::kSketchOnly; }

  uint64_t transitions() const { return transitions_; }

 private:
  void ReportBad(std::string_view kind, std::string_view reason);
  void Transition(DegradationTier to, std::string_view reason);

  Options options_;
  DegradationTier tier_ = DegradationTier::kOk;
  uint32_t bad_streak_ = 0;
  uint32_t healthy_streak_ = 0;
  uint64_t transitions_ = 0;
};

}  // namespace commsig

#endif  // COMMSIG_ROBUST_DEGRADATION_H_

#ifndef COMMSIG_ROBUST_SUPERVISOR_H_
#define COMMSIG_ROBUST_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/windower.h"
#include "obs/window_stats.h"
#include "robust/checkpoint.h"
#include "robust/degradation.h"
#include "robust/retry.h"
#include "sketch/streaming_signatures.h"

namespace commsig {

/// What one supervised run did — the `commsig stream` / `chaoscheck`
/// run report, and the assertion surface for recovery tests.
struct StreamRunReport {
  /// --kill-after triggered a simulated crash; the run is incomplete and
  /// the CLI maps this to exit code 3 (restartable).
  bool killed = false;
  /// Resume position chosen at startup (0 = fresh start).
  uint64_t start_event = 0;
  /// Events observed by the builder this run.
  uint64_t events_processed = 0;
  /// Stream cursor when the run ended (== total events unless killed).
  uint64_t final_position = 0;
  uint64_t epochs = 0;
  uint64_t checkpoints_saved = 0;
  /// Saves that still failed after the retry policy was exhausted.
  uint64_t checkpoint_save_failures = 0;
  /// IO retries across all retried operations (checkpoint saves and
  /// telemetry flushes) this run.
  uint64_t io_retries = 0;
  bool restored_from_checkpoint = false;
  /// The newest on-disk checkpoint was torn/corrupt and an older
  /// generation was used instead.
  bool restored_from_fallback = false;
  DegradationTier final_tier = DegradationTier::kOk;
};

/// Owns the `commsig stream` epoch loop and keeps it alive through faults.
///
/// The stream is processed in epochs (the emit cadence when set, else the
/// checkpoint cadence). An epoch only updates in-memory sketches, so it
/// cannot fail; its observe time is checked against `epoch_budget_us`.
///
/// All durable IO (checkpoint saves, telemetry flushes) runs under one
/// RetryPolicy with exponential backoff + jitter. Epoch budgets and
/// exhausted saves feed a DegradationController whose tier ladder sheds
/// load under sustained overload or faults (drop tracing spans, stretch
/// the checkpoint cadence, drop the expensive UT extraction) and surfaces
/// through /healthz.
///
/// Startup restores the newest valid checkpoint when `checkpoint_dir` is
/// set, with the input-fingerprint staleness check and corrupt-newest
/// fallback; `--kill-after` crashes mid-run so a following invocation
/// proves the restore path end to end.
class StreamSupervisor {
 public:
  struct Options {
    /// Signature length for periodic emissions.
    size_t k = 10;
    /// Checkpoint + telemetry-flush cadence in events (0 = never).
    uint64_t checkpoint_every = 10000;
    /// Signature re-emission cadence in events (0 = never).
    uint64_t emit_every = 0;
    /// Simulated crash after this many events processed this run (0 = off).
    uint64_t kill_after = 0;
    /// Timestamp-paced replay speed: trace-time seconds elapse
    /// `replay_rate` times faster than wall-clock (1.0 = real time,
    /// 100.0 = 100x). Sleeps are scheduled against the stream's first
    /// timestamp so pacing never drifts with per-event processing cost.
    /// 0 disables.
    double replay_rate = 0.0;
    /// Durable checkpoint directory (empty = no checkpoints).
    std::string checkpoint_dir;
    /// Soft budget on one epoch's observe time (the window_build stage;
    /// replay pacing is not counted). Exceeding it reports an overload
    /// signal to the degradation ladder (0 = off).
    uint64_t epoch_budget_us = 0;
    RetryPolicy retry;
    DegradationController::Options degrade;
    StreamingSignatureBuilder::Options builder;
    /// In-run telemetry flush (the CLI's --metrics-out/--trace-out write),
    /// invoked at the checkpoint cadence under the retry policy. Null
    /// disables in-run flushes.
    std::function<Status()> flush_telemetry;
    /// When true, the shed_tracing tier toggles TraceCollector off and
    /// restores the enabled state captured at construction on recovery.
    bool manage_tracing = false;
  };

  StreamSupervisor(std::vector<NodeId> focal, Options options);

  /// Runs the stream to completion (or simulated crash). `events` is the
  /// full input stream; the resume position comes from the restored
  /// checkpoint. Call once per supervisor.
  StreamRunReport Run(const std::vector<TraceEvent>& events);

  /// Final builder state (null only before Run). Valid after Run for
  /// signature extraction by the CLI / chaos harness.
  const StreamingSignatureBuilder* builder() const { return builder_.get(); }
  const std::vector<NodeId>& focal() const { return focal_; }
  DegradationController& degradation() { return degradation_; }
  Retrier& retrier() { return retrier_; }

  /// Order-sensitive digest of the event stream, stored in every
  /// checkpoint so a restore against a different (edited, re-generated)
  /// input is detected as stale instead of silently resuming mid-stream.
  static uint64_t FingerprintEvents(const std::vector<TraceEvent>& events);

 private:
  /// Restores the newest valid checkpoint (staleness-checked against
  /// `fingerprint`) or builds fresh state. Returns the resume position.
  uint64_t RestoreOrFresh(uint64_t fingerprint, size_t total_events,
                          StreamRunReport& report);
  /// Observes events [begin, end), timing each Observe into `epoch`'s
  /// window_build stage and pacing the replay between them.
  void ObserveSlice(const std::vector<TraceEvent>& events, uint64_t begin,
                    uint64_t end, obs::WindowRecord& epoch);
  /// One epoch [begin, end): observes it, then reports it to the
  /// degradation ladder as healthy or over budget. Updates `report`.
  void RunEpoch(const std::vector<TraceEvent>& events, uint64_t begin,
                uint64_t end, obs::WindowRecord& epoch,
                StreamRunReport& report);
  void SaveCheckpoint(uint64_t consumed, uint64_t fingerprint,
                      StreamRunReport& report);
  void Emit(uint64_t position, obs::WindowRecord& epoch);
  /// Applies the current tier's sheds (tracing on/off).
  void ApplyTierEffects();
  /// Sleeps until `event_time` is due on the replay schedule
  /// (options_.replay_rate > 0). The first paced event anchors the
  /// schedule; regressions and re-observed events replay immediately.
  void PaceReplay(uint64_t event_time);

  std::vector<NodeId> focal_;
  Options options_;
  std::unique_ptr<CheckpointManager> manager_;
  std::unique_ptr<StreamingSignatureBuilder> builder_;
  Retrier retrier_;
  DegradationController degradation_;
  bool tracing_baseline_ = false;
  bool tracing_current_ = false;

  // Replay-schedule anchor (lazily set by the first paced event).
  bool replay_anchored_ = false;
  uint64_t replay_wall_start_us_ = 0;
  uint64_t replay_time_base_ = 0;
};

}  // namespace commsig

#endif  // COMMSIG_ROBUST_SUPERVISOR_H_

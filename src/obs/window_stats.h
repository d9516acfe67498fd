#ifndef COMMSIG_OBS_WINDOW_STATS_H_
#define COMMSIG_OBS_WINDOW_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace commsig::obs {

/// Stages of the per-window signature pipeline, in execution order. Parse
/// and window build run once per input (amortized over the window sequence);
/// the remaining stages run on every window advance.
enum class PipelineStage : int {
  kParse = 0,           // trace/NetFlow decode into TraceEvents
  kWindowBuild = 1,     // windower split / streaming ingest of the epoch
  kDeltaDiff = 2,       // GraphDelta row diff against the previous window
  kDirtyRecompute = 3,  // dirty-node signature recompute (or full sweep)
  kExtract = 4,         // distance evaluation / signature extraction
};

inline constexpr size_t kNumPipelineStages = 5;

/// Stable snake_case stage name ("parse", "window_build", ...). Used in
/// metric names, /pipelinez JSON and slow-window log events.
std::string_view PipelineStageName(PipelineStage stage);

/// Attribution record for one completed window advance.
struct WindowRecord {
  uint64_t window_index = 0;
  /// Events consumed in this window (stream: events observed this epoch;
  /// timeline: edges in the window graph).
  uint64_t events = 0;
  uint64_t focal_nodes = 0;
  /// Incremental-engine dirty/reused split; both zero for full sweeps that
  /// never consulted a delta.
  uint64_t dirty_nodes = 0;
  uint64_t reused_nodes = 0;
  uint64_t stage_us[kNumPipelineStages] = {};
  /// Sum of the stage latencies; Record() fills it when left zero.
  uint64_t total_us = 0;
  /// Steady-clock completion time (microseconds since the trace collector
  /// epoch); Record() fills it when left zero.
  uint64_t completed_at_us = 0;
};

/// Process-wide per-window pipeline attribution: a ring of the most recent
/// completed windows plus aggregate metrics, serving /pipelinez and the
/// /healthz last-advance watchdog.
///
/// Recording a window also:
///  - feeds the registry histograms `pipeline/<stage>_us` (non-zero stages
///    only) and `pipeline/window_total_us`, counters
///    `pipeline/windows_recorded` / `pipeline/events_processed`, and the
///    last-window gauges, and
///  - when a latency budget is set and `total_us` exceeds it, emits one
///    structured "slow_window" warning with the full stage breakdown.
///
/// One-shot setup stages (parse, window build of a pre-split sequence) that
/// are not attributable to a single window advance are recorded separately
/// through RecordSetupStage and reported under "setup" in the JSON view.
class WindowStatsAggregator {
 public:
  static WindowStatsAggregator& Global();

  /// Windows retained for /pipelinez (compile-time ring capacity).
  static constexpr size_t kRingCapacity = 128;

  /// Slow-window watchdog budget; 0 disables the watchdog (default).
  void SetLatencyBudgetUs(uint64_t budget_us) {
    budget_us_.store(budget_us, std::memory_order_relaxed);
  }
  uint64_t latency_budget_us() const {
    return budget_us_.load(std::memory_order_relaxed);
  }

  void Record(WindowRecord record) COMMSIG_EXCLUDES(mutex_);

  /// Adds one-shot setup latency for `stage` (accumulates across calls).
  void RecordSetupStage(PipelineStage stage, uint64_t dur_us);

  /// One parallel-ingestion run's totals, surfaced as the "ingest" block
  /// of /pipelinez. obs deliberately knows only the numbers (no dependency
  /// on src/ingest); the pipeline reports after each run.
  struct IngestRunStats {
    uint64_t parse_workers = 0;
    uint64_t chunks_framed = 0;
    uint64_t batches_merged = 0;
    uint64_t records_parsed = 0;
    uint64_t producer_stalls = 0;
    uint64_t consumer_stalls = 0;
  };

  /// Accumulates one ingestion run (counters add; parse_workers is the
  /// most recent run's value).
  void RecordIngestRun(const IngestRunStats& run);

  /// The most recent `max_windows` records, oldest first; 0 = all retained.
  std::vector<WindowRecord> Recent(size_t max_windows = 0) const
      COMMSIG_EXCLUDES(mutex_);

  uint64_t windows_recorded() const {
    return windows_recorded_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the last Record(), or UINT64_MAX before the first —
  /// the /healthz watchdog input.
  uint64_t LastAdvanceAgeUs() const;

  /// /pipelinez payload: {"windows_recorded":N, "latency_budget_us":B,
  ///  "setup":{...}, "stage_names":[...], "windows":[{...}, ...]} with
  /// windows oldest-first.
  std::string ToJson(size_t max_windows = 0) const COMMSIG_EXCLUDES(mutex_);

  /// Clears the ring, setup stages, counters and watchdog state (tests).
  void Reset() COMMSIG_EXCLUDES(mutex_);

 private:
  WindowStatsAggregator() = default;

  std::atomic<uint64_t> budget_us_{0};
  std::atomic<uint64_t> windows_recorded_{0};
  /// Steady-clock time of the last Record (collector-epoch microseconds),
  /// 0 = never.
  std::atomic<uint64_t> last_advance_us_{0};
  std::atomic<uint64_t> setup_us_[kNumPipelineStages] = {};

  // Parallel-ingestion totals (see RecordIngestRun).
  std::atomic<uint64_t> ingest_runs_{0};
  std::atomic<uint64_t> ingest_parse_workers_{0};
  std::atomic<uint64_t> ingest_chunks_framed_{0};
  std::atomic<uint64_t> ingest_batches_merged_{0};
  std::atomic<uint64_t> ingest_records_parsed_{0};
  std::atomic<uint64_t> ingest_producer_stalls_{0};
  std::atomic<uint64_t> ingest_consumer_stalls_{0};

  mutable Mutex mutex_;
  /// Fixed-capacity ring, `ring_head_` is the next write slot.
  std::vector<WindowRecord> ring_ COMMSIG_GUARDED_BY(mutex_);
  size_t ring_head_ COMMSIG_GUARDED_BY(mutex_) = 0;
};

/// RAII stage timer: adds the scope's wall time to `record.stage_us[stage]`
/// on destruction. The record must outlive the timer.
class ScopedStageTimer {
 public:
  ScopedStageTimer(WindowRecord& record, PipelineStage stage);
  ~ScopedStageTimer();

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  WindowRecord& record_;
  PipelineStage stage_;
  uint64_t start_us_;
};

}  // namespace commsig::obs

#endif  // COMMSIG_OBS_WINDOW_STATS_H_

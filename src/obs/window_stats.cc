#include "obs/window_stats.h"

#include <limits>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace commsig::obs {
namespace {

// Per-stage latency histograms, addressed by verbatim literals: the
// obs-schema registry (docs/obs_schema.json) is extracted from call-site
// string literals, so a name built by concatenation would never reach
// scrape configs or the round-trip gate.
Histogram& StageHistogram(MetricsRegistry& reg, PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kParse:
      return reg.GetHistogram("pipeline/parse_us");
    case PipelineStage::kWindowBuild:
      return reg.GetHistogram("pipeline/window_build_us");
    case PipelineStage::kDeltaDiff:
      return reg.GetHistogram("pipeline/delta_diff_us");
    case PipelineStage::kDirtyRecompute:
      return reg.GetHistogram("pipeline/dirty_recompute_us");
    case PipelineStage::kExtract:
      return reg.GetHistogram("pipeline/extract_us");
  }
  return reg.GetHistogram("pipeline/unknown_us");
}

}  // namespace

std::string_view PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kParse:
      return "parse";
    case PipelineStage::kWindowBuild:
      return "window_build";
    case PipelineStage::kDeltaDiff:
      return "delta_diff";
    case PipelineStage::kDirtyRecompute:
      return "dirty_recompute";
    case PipelineStage::kExtract:
      return "extract";
  }
  return "unknown";
}

WindowStatsAggregator& WindowStatsAggregator::Global() {
  // Leaked so late records in static destructors stay safe.
  static WindowStatsAggregator* aggregator =
      new WindowStatsAggregator();  // NOLINT(analyze-hygiene-naked-new)
  return *aggregator;
}

void WindowStatsAggregator::Record(WindowRecord record) {
  if (record.total_us == 0) {
    for (uint64_t us : record.stage_us) record.total_us += us;
  }
  if (record.completed_at_us == 0) {
    // Clamped to >= 1: the collector epoch starts at process init, so a
    // record landing in the very first microsecond must not collide with
    // the "never advanced" sentinel 0.
    const uint64_t now = TraceCollector::Global().NowMicros();
    record.completed_at_us = now > 0 ? now : 1;
  }

  MetricsRegistry& reg = MetricsRegistry::Global();
  for (size_t i = 0; i < kNumPipelineStages; ++i) {
    if (record.stage_us[i] == 0) continue;
    StageHistogram(reg, static_cast<PipelineStage>(i))
        .Observe(static_cast<double>(record.stage_us[i]));
  }
  reg.GetHistogram("pipeline/window_total_us")
      .Observe(static_cast<double>(record.total_us));
  reg.GetCounter("pipeline/windows_recorded").Add(1);
  reg.GetCounter("pipeline/events_processed").Add(record.events);
  reg.GetGauge("pipeline/last_window_total_us")
      .Set(static_cast<double>(record.total_us));
  reg.GetGauge("pipeline/last_window_dirty_nodes")
      .Set(static_cast<double>(record.dirty_nodes));

  windows_recorded_.fetch_add(1, std::memory_order_relaxed);
  last_advance_us_.store(record.completed_at_us, std::memory_order_relaxed);

  const uint64_t budget = budget_us_.load(std::memory_order_relaxed);
  if (budget > 0 && record.total_us > budget) {
    reg.GetCounter("pipeline/slow_windows").Add(1);
    LogEvent event = LogWarn("slow_window");
    event.U64("window", record.window_index)
        .U64("total_us", record.total_us)
        .U64("budget_us", budget)
        .U64("events", record.events)
        .U64("dirty_nodes", record.dirty_nodes)
        .U64("reused_nodes", record.reused_nodes);
    for (size_t i = 0; i < kNumPipelineStages; ++i) {
      if (record.stage_us[i] == 0) continue;
      event.U64(std::string(PipelineStageName(static_cast<PipelineStage>(i))) +
                    "_us",
                record.stage_us[i]);
    }
  }

  MutexLock lock(mutex_);
  if (ring_.size() < kRingCapacity) {
    ring_.push_back(record);
    ring_head_ = ring_.size() % kRingCapacity;
  } else {
    ring_[ring_head_] = record;
    ring_head_ = (ring_head_ + 1) % kRingCapacity;
  }
}

void WindowStatsAggregator::RecordSetupStage(PipelineStage stage,
                                             uint64_t dur_us) {
  setup_us_[static_cast<size_t>(stage)].fetch_add(dur_us,
                                                  std::memory_order_relaxed);
  StageHistogram(MetricsRegistry::Global(), stage)
      .Observe(static_cast<double>(dur_us));
}

void WindowStatsAggregator::RecordIngestRun(const IngestRunStats& run) {
  ingest_runs_.fetch_add(1, std::memory_order_relaxed);
  ingest_parse_workers_.store(run.parse_workers, std::memory_order_relaxed);
  ingest_chunks_framed_.fetch_add(run.chunks_framed,
                                  std::memory_order_relaxed);
  ingest_batches_merged_.fetch_add(run.batches_merged,
                                   std::memory_order_relaxed);
  ingest_records_parsed_.fetch_add(run.records_parsed,
                                   std::memory_order_relaxed);
  ingest_producer_stalls_.fetch_add(run.producer_stalls,
                                    std::memory_order_relaxed);
  ingest_consumer_stalls_.fetch_add(run.consumer_stalls,
                                    std::memory_order_relaxed);
}

std::vector<WindowRecord> WindowStatsAggregator::Recent(
    size_t max_windows) const {
  std::vector<WindowRecord> out;
  MutexLock lock(mutex_);
  const size_t n = ring_.size();
  out.reserve(n);
  // Oldest-first: the ring head is the oldest slot once the ring is full.
  const size_t start = n < kRingCapacity ? 0 : ring_head_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % n]);
  }
  if (max_windows > 0 && out.size() > max_windows) {
    out.erase(out.begin(),
              out.end() - static_cast<ptrdiff_t>(max_windows));
  }
  return out;
}

uint64_t WindowStatsAggregator::LastAdvanceAgeUs() const {
  const uint64_t last = last_advance_us_.load(std::memory_order_relaxed);
  if (last == 0) return std::numeric_limits<uint64_t>::max();
  const uint64_t now = TraceCollector::Global().NowMicros();
  return now > last ? now - last : 0;
}

std::string WindowStatsAggregator::ToJson(size_t max_windows) const {
  std::vector<WindowRecord> windows = Recent(max_windows);
  std::string out = "{\n  \"windows_recorded\": " +
                    std::to_string(windows_recorded()) +
                    ",\n  \"latency_budget_us\": " +
                    std::to_string(latency_budget_us());
  out += ",\n  \"setup\": {";
  bool first = true;
  for (size_t i = 0; i < kNumPipelineStages; ++i) {
    const uint64_t us = setup_us_[i].load(std::memory_order_relaxed);
    if (us == 0) continue;
    out += first ? "" : ", ";
    first = false;
    // Operand-by-operand: `"lit" + std::string(...)` trips a GCC 12
    // -Wrestrict false positive at -O2.
    out += '"';
    out += PipelineStageName(static_cast<PipelineStage>(i));
    out += "_us\": ";
    out += std::to_string(us);
  }
  out += "},\n  \"ingest\": {";
  out += "\"runs\": ";
  out += std::to_string(ingest_runs_.load(std::memory_order_relaxed));
  out += ", \"parse_workers\": ";
  out +=
      std::to_string(ingest_parse_workers_.load(std::memory_order_relaxed));
  out += ", \"chunks_framed\": ";
  out +=
      std::to_string(ingest_chunks_framed_.load(std::memory_order_relaxed));
  out += ", \"batches_merged\": ";
  out +=
      std::to_string(ingest_batches_merged_.load(std::memory_order_relaxed));
  out += ", \"records_parsed\": ";
  out +=
      std::to_string(ingest_records_parsed_.load(std::memory_order_relaxed));
  out += ", \"producer_stalls\": ";
  out +=
      std::to_string(ingest_producer_stalls_.load(std::memory_order_relaxed));
  out += ", \"consumer_stalls\": ";
  out +=
      std::to_string(ingest_consumer_stalls_.load(std::memory_order_relaxed));
  out += "},\n  \"stage_names\": [";
  for (size_t i = 0; i < kNumPipelineStages; ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += PipelineStageName(static_cast<PipelineStage>(i));
    out += '"';
  }
  out += "],\n  \"windows\": [";
  for (size_t w = 0; w < windows.size(); ++w) {
    const WindowRecord& r = windows[w];
    out += w == 0 ? "\n" : ",\n";
    out += "    {\"window\": " + std::to_string(r.window_index);
    out += ", \"events\": " + std::to_string(r.events);
    out += ", \"focal_nodes\": " + std::to_string(r.focal_nodes);
    out += ", \"dirty_nodes\": " + std::to_string(r.dirty_nodes);
    out += ", \"reused_nodes\": " + std::to_string(r.reused_nodes);
    out += ", \"stages_us\": {";
    bool first_stage = true;
    for (size_t i = 0; i < kNumPipelineStages; ++i) {
      if (r.stage_us[i] == 0) continue;
      out += first_stage ? "" : ", ";
      first_stage = false;
      // Built up operand-by-operand: `"lit" + std::string(...)` trips a
      // GCC 12 -Wrestrict false positive at -O2.
      out += '"';
      out += PipelineStageName(static_cast<PipelineStage>(i));
      out += "\": ";
      out += std::to_string(r.stage_us[i]);
    }
    out += "}, \"total_us\": " + std::to_string(r.total_us);
    out += ", \"completed_at_us\": " + std::to_string(r.completed_at_us);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void WindowStatsAggregator::Reset() {
  windows_recorded_.store(0, std::memory_order_relaxed);
  last_advance_us_.store(0, std::memory_order_relaxed);
  budget_us_.store(0, std::memory_order_relaxed);
  for (std::atomic<uint64_t>& us : setup_us_) {
    us.store(0, std::memory_order_relaxed);
  }
  ingest_runs_.store(0, std::memory_order_relaxed);
  ingest_parse_workers_.store(0, std::memory_order_relaxed);
  ingest_chunks_framed_.store(0, std::memory_order_relaxed);
  ingest_batches_merged_.store(0, std::memory_order_relaxed);
  ingest_records_parsed_.store(0, std::memory_order_relaxed);
  ingest_producer_stalls_.store(0, std::memory_order_relaxed);
  ingest_consumer_stalls_.store(0, std::memory_order_relaxed);
  MutexLock lock(mutex_);
  ring_.clear();
  ring_head_ = 0;
}

ScopedStageTimer::ScopedStageTimer(WindowRecord& record, PipelineStage stage)
    : record_(record),
      stage_(stage),
      start_us_(TraceCollector::Global().NowMicros()) {}

ScopedStageTimer::~ScopedStageTimer() {
  record_.stage_us[static_cast<size_t>(stage_)] +=
      TraceCollector::Global().NowMicros() - start_us_;
}

}  // namespace commsig::obs

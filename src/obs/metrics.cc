#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <thread>

namespace commsig::obs {

size_t Counter::StripeIndex() {
  // A stable per-thread stripe keeps each worker on its own cache line; the
  // multiplicative hash spreads consecutive thread ids across stripes.
  static std::atomic<size_t> next{0};
  thread_local size_t stripe =
      (next.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b9u) % kStripes;
  return stripe;
}

int Histogram::BucketIndex(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;
  int exp = std::ilogb(v);  // floor(log2(v)) for finite positive v
  int idx = exp + kOffset;
  if (idx < 0) return 0;
  if (idx >= kNumBuckets) return kNumBuckets - 1;
  return idx;
}

void Histogram::Observe(double v) {
  MutexLock lock(mutex_);
  stats_.Add(v);
  ++buckets_[BucketIndex(v)];
}

HistogramSnapshot Histogram::Snapshot() const {
  MutexLock lock(mutex_);
  HistogramSnapshot snap;
  snap.count = stats_.count();
  snap.mean = stats_.Mean();
  snap.stddev = stats_.StdDev();
  snap.min = stats_.Min();
  snap.max = stats_.Max();
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    snap.buckets.push_back({std::ldexp(1.0, i - kOffset + 1), buckets_[i]});
  }
  return snap;
}

void Histogram::Reset() {
  MutexLock lock(mutex_);
  stats_ = RunningStats();
  for (uint64_t& b : buckets_) b = 0;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so metrics outlive static destructors in instrumented code.
  static MetricsRegistry* registry =
      new MetricsRegistry();  // NOLINT(commsig-naked-new): leaked singleton
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (const Bucket& b : buckets) {
    const uint64_t next = cumulative + b.count;
    if (static_cast<double>(next) >= rank) {
      // Bucket i covers [upper/2, upper); interpolate by the rank's position
      // inside this bucket's count.
      const double lower = b.upper_bound / 2.0;
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(b.count);
      double v = lower + frac * (b.upper_bound - lower);
      if (v < min) v = min;
      if (v > max) v = max;
      return v;
    }
    cumulative = next;
  }
  return max;
}

namespace {

std::string FmtDouble(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; map everything else to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "commsig_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + FmtDouble(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {";
    out += "\"count\": " + std::to_string(h.count);
    out += ", \"mean\": " + FmtDouble(h.mean);
    out += ", \"stddev\": " + FmtDouble(h.stddev);
    out += ", \"min\": " + FmtDouble(h.min);
    out += ", \"max\": " + FmtDouble(h.max);
    out += ", \"p50\": " + FmtDouble(h.Quantile(0.50));
    out += ", \"p95\": " + FmtDouble(h.Quantile(0.95));
    out += ", \"p99\": " + FmtDouble(h.Quantile(0.99));
    out += ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": " + FmtDouble(h.buckets[i].upper_bound) +
             ", \"count\": " + std::to_string(h.buckets[i].count) + "}";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + FmtDouble(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " histogram\n";
    uint64_t cumulative = 0;
    for (const auto& b : h.buckets) {
      cumulative += b.count;
      out += pname + "_bucket{le=\"" + FmtDouble(b.upper_bound) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + FmtDouble(h.mean * static_cast<double>(h.count)) +
           "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
    // Derived quantile gauges (readable without a bucket-aware scraper).
    // Separate metric names rather than {quantile=} labels: the base name
    // already has TYPE histogram, and one exposition may not mix types.
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", 0.50},
          {"_p95", 0.95},
          {"_p99", 0.99}}) {
      out += "# TYPE " + pname + suffix + " gauge\n";
      out += pname + suffix + " " + FmtDouble(h.Quantile(q)) + "\n";
    }
  }
  return out;
}

void PreRegisterCoreMetrics() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (const char* name :
       {"rwr/calls", "rwr/iterations", "rwr/batch_solves",
        "rwr/batch_dense_iterations", "rwr/batch_sparse_iterations",
        "rwr_push/calls", "rwr_push/pushes",
        "signature/built", "distance/evaluations",
        "sketch/cm_updates",
        "sketch/cm_queries", "sketch/fm_updates", "sketch/fm_queries",
        "sketch/ss_updates",
        "sketch/ss_evictions", "sketch/signature_cache_hits",
        "threadpool/tasks_executed",
        "windower/windows_built", "robust/records_rejected",
        "robust/windower_dropped_events", "robust/rwr_fallbacks",
        "robust/faults_injected", "robust/checkpoints_saved",
        "robust/checkpoints_loaded", "robust/checkpoints_corrupt",
        "robust/quarantined_bad_field", "robust/quarantined_bad_magic",
        "robust/quarantined_bad_record_count",
        "robust/quarantined_non_finite_weight",
        "robust/quarantined_non_positive_weight",
        "robust/quarantined_timestamp_regression",
        "robust/quarantined_truncated", "robust/quarantined_zero_node",
        "timeline/nodes_dirty", "timeline/nodes_reused",
        "timeline/rwr_warm_start_fallbacks",
        "pipeline/windows_recorded", "pipeline/events_processed",
        "pipeline/slow_windows", "stats_server/requests",
        "stats_server/not_found", "robust/failpoints_fired",
        "robust/io_retries", "robust/io_retries_exhausted",
        "robust/checkpoint_restores", "robust/degradation_transitions",
        "robust/degradation_bad_signals", "robust/global_budget_exhausted",
        "ingest/chunks_framed", "ingest/batches_merged",
        "ingest/records_parsed",
        "ingest/producer_stalls", "ingest/consumer_stalls"}) {
    reg.GetCounter(name);
  }
  reg.GetGauge("threadpool/queue_depth");
  reg.GetGauge("threadpool/utilization");
  reg.GetGauge("pipeline/last_window_total_us");
  reg.GetGauge("pipeline/last_window_dirty_nodes");
  reg.GetGauge("robust/degradation_tier");
  reg.GetGauge("obs/health_worst_level");
  reg.GetGauge("sketch/cm_error_bound");
  reg.GetGauge("ingest/parse_workers");
  // Histograms surface in /metrics and /varz exactly like counters; a
  // scraper must see the full schema before the first observation lands.
  for (const char* name :
       {"pipeline/window_total_us", "pipeline/parse_us",
        "pipeline/window_build_us", "pipeline/delta_diff_us",
        "pipeline/dirty_recompute_us", "pipeline/extract_us",
        "robust/checkpoint_bytes", "rwr/residual_at_convergence",
        "signature/candidates", "windower/window_events",
        "ingest/batch_records"}) {
    reg.GetHistogram(name);
  }
}

}  // namespace commsig::obs

#include "obs/trace.h"

#include <cstdio>

#include "obs/metrics.h"

namespace commsig::obs {

namespace {
// Per-thread nesting depth for span events.
thread_local uint32_t span_depth = 0;
}  // namespace

TraceCollector& TraceCollector::Global() {
  // Leaked so spans in static destructors stay safe.
  static TraceCollector* collector =
      new TraceCollector();  // NOLINT(analyze-hygiene-naked-new)
  return *collector;
}

uint64_t TraceCollector::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

uint32_t TraceCollector::CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceCollector::Record(const SpanEvent& event) {
  MutexLock lock(mutex_);
  if (enabled_.load(std::memory_order_relaxed)) {
    events_.push_back(event);
  }
  if (retain_recent_.load(std::memory_order_relaxed)) {
    if (recent_.size() < kRecentCapacity) {
      recent_.push_back(event);
      recent_head_ = recent_.size() % kRecentCapacity;
    } else {
      recent_[recent_head_] = event;
      recent_head_ = (recent_head_ + 1) % kRecentCapacity;
    }
  }
}

std::vector<SpanEvent> TraceCollector::Events() const {
  MutexLock lock(mutex_);
  return events_;
}

void TraceCollector::Clear() {
  MutexLock lock(mutex_);
  events_.clear();
  recent_.clear();
  recent_head_ = 0;
}

std::vector<SpanEvent> TraceCollector::RecentSpans() const {
  MutexLock lock(mutex_);
  std::vector<SpanEvent> out;
  const size_t n = recent_.size();
  out.reserve(n);
  // Once the ring is full the head slot holds the oldest span.
  const size_t start = n < kRecentCapacity ? 0 : recent_head_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(recent_[(start + i) % n]);
  }
  return out;
}

std::string TraceCollector::RecentSpansJson() const {
  std::vector<SpanEvent> spans = RecentSpans();
  std::string out =
      "{\n  \"retained\": " + std::to_string(spans.size()) +
      ",\n  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanEvent& e = spans[i];
    out += i == 0 ? "\n" : ",\n";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"ts_us\": %llu, \"dur_us\": %llu, "
                  "\"tid\": %u, \"depth\": %u}",
                  JsonEscape(e.name).c_str(),
                  static_cast<unsigned long long>(e.ts_us),
                  static_cast<unsigned long long>(e.dur_us), e.tid, e.depth);
    out += buf;
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string TraceCollector::ToChromeTraceJson() const {
  std::vector<SpanEvent> events = Events();
  std::string out =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"cat\": \"commsig\", \"ph\": \"X\", "
                  "\"ts\": %llu, \"dur\": %llu, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"depth\": %u}}",
                  JsonEscape(e.name).c_str(),
                  static_cast<unsigned long long>(e.ts_us),
                  static_cast<unsigned long long>(e.dur_us), e.tid, e.depth);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

Status TraceCollector::WriteChromeTraceFile(const std::string& path) const {
  std::string json = ToChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

ScopedSpan::ScopedSpan(const char* name)
    : name_(name),
      start_us_(TraceCollector::Global().NowMicros()),
      depth_(span_depth++) {}

ScopedSpan::~ScopedSpan() {
  --span_depth;
  TraceCollector& collector = TraceCollector::Global();
  uint64_t dur = collector.NowMicros() - start_us_;
  MetricsRegistry::Global()
      .GetHistogram(std::string("span/") + name_ + "_us")
      .Observe(static_cast<double>(dur));
  if (collector.enabled() || collector.retain_recent()) {
    collector.Record({name_, start_us_, dur,
                      TraceCollector::CurrentThreadId(), depth_});
  }
}

}  // namespace commsig::obs

#include "obs/log.h"

#include <cmath>
#include <cstdlib>
#include <ctime>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace commsig::obs {

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

bool ParseLogLevel(std::string_view name, LogLevel& out) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  if (lower == "debug") {
    out = LogLevel::kDebug;
  } else if (lower == "info") {
    out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    out = LogLevel::kWarn;
  } else if (lower == "error") {
    out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

LogSink::LogSink() : min_level_(static_cast<int>(LogLevel::kInfo)) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before any threads.
  const char* env = std::getenv("COMMSIG_LOG");
  if (env != nullptr) {
    LogLevel level = LogLevel::kInfo;
    if (ParseLogLevel(env, level)) {
      min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
    }
  }
}

LogSink& LogSink::Global() {
  // Leaked so events in static destructors stay safe.
  static LogSink* sink = new LogSink();  // NOLINT(analyze-hygiene-naked-new)
  return *sink;
}

Status LogSink::OpenFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return Status::IOError("cannot open log file " + path);
  MutexLock lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  return Status::OK();
}

void LogSink::CloseFile() {
  MutexLock lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void LogSink::Write(const std::string& line) {
  lines_emitted_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mutex_);
  if (stderr_enabled_.load(std::memory_order_relaxed)) {
    std::fwrite(line.data(), 1, line.size(), stderr);
  }
  if (file_ != nullptr) {
    std::fwrite(line.data(), 1, line.size(), file_);
    // Per-line flush: a crashed run keeps every line emitted before the
    // crash, which is the whole point of file-target logging for a daemon.
    std::fflush(file_);
  }
}

namespace {

/// Wall-clock timestamp "2026-08-08T12:34:56.789Z" (UTC, millisecond).
std::string IsoTimestamp() {
  std::timespec ts{};
  std::timespec_get(&ts, TIME_UTC);
  std::tm tm{};
  gmtime_r(&ts.tv_sec, &tm);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec,
                static_cast<int>(ts.tv_nsec / 1000000));
  return buf;
}

std::string FmtLogDouble(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

LogEvent::LogEvent(LogLevel level, std::string_view event)
    : enabled_(LogSink::Global().Enabled(level)) {
  if (!enabled_) return;
  line_ = "{\"ts\":\"" + IsoTimestamp() + "\",\"level\":\"";
  line_ += LogLevelName(level);
  line_ += "\",\"event\":\"";
  line_ += JsonEscape(std::string(event));
  line_ += "\",\"tid\":";
  line_ += std::to_string(TraceCollector::CurrentThreadId());
}

LogEvent::~LogEvent() {
  if (!enabled_) return;
  line_ += "}\n";
  LogSink::Global().Write(line_);
}

void LogEvent::Key(std::string_view key) {
  line_ += ",\"";
  line_ += JsonEscape(std::string(key));
  line_ += "\":";
}

LogEvent& LogEvent::Str(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  Key(key);
  line_ += "\"";
  line_ += JsonEscape(std::string(value));
  line_ += "\"";
  return *this;
}

LogEvent& LogEvent::U64(std::string_view key, uint64_t value) {
  if (!enabled_) return *this;
  Key(key);
  line_ += std::to_string(value);
  return *this;
}

LogEvent& LogEvent::I64(std::string_view key, int64_t value) {
  if (!enabled_) return *this;
  Key(key);
  line_ += std::to_string(value);
  return *this;
}

LogEvent& LogEvent::Double(std::string_view key, double value) {
  if (!enabled_) return *this;
  Key(key);
  line_ += FmtLogDouble(value);
  return *this;
}

LogEvent& LogEvent::Bool(std::string_view key, bool value) {
  if (!enabled_) return *this;
  Key(key);
  line_ += value ? "true" : "false";
  return *this;
}

}  // namespace commsig::obs

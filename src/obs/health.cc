#include "obs/health.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace commsig::obs {

std::string_view HealthLevelName(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk:
      return "ok";
    case HealthLevel::kDegraded:
      return "degraded";
    case HealthLevel::kCritical:
      return "critical";
  }
  return "unknown";
}

HealthRegistry& HealthRegistry::Global() {
  static HealthRegistry* instance =
      new HealthRegistry();  // NOLINT(analyze-hygiene-naked-new)
  return *instance;
}

void HealthRegistry::Set(const std::string& component, HealthLevel level,
                         std::string detail) {
  bool changed = false;
  {
    MutexLock lock(mutex_);
    Entry& entry = components_[component];
    changed = entry.level != level;
    if (changed) ++transitions_;
    entry.level = level;
    entry.detail = std::move(detail);
  }
  // Gauge update outside the lock: the metrics registry has its own mutex
  // and must stay outermost-independent of ours.
  if (changed) {
    COMMSIG_GAUGE_SET("obs/health_worst_level", static_cast<int>(Worst()));
  }
}

void HealthRegistry::Clear(const std::string& component) {
  MutexLock lock(mutex_);
  components_.erase(component);
}

HealthLevel HealthRegistry::Worst() const {
  MutexLock lock(mutex_);
  HealthLevel worst = HealthLevel::kOk;
  for (const auto& [name, entry] : components_) {
    if (static_cast<int>(entry.level) > static_cast<int>(worst)) {
      worst = entry.level;
    }
  }
  return worst;
}

HealthLevel HealthRegistry::LevelOf(const std::string& component) const {
  MutexLock lock(mutex_);
  auto it = components_.find(component);
  return it == components_.end() ? HealthLevel::kOk : it->second.level;
}

std::string HealthRegistry::ToJson() const {
  MutexLock lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : components_) {
    if (!first) out += ", ";
    first = false;
    // Built up operand-by-operand: `"lit" + std::string(...)` trips a GCC 12
    // -Wrestrict false positive at -O2.
    out += '"';
    out += JsonEscape(name);
    out += "\": {\"level\": \"";
    out += HealthLevelName(entry.level);
    out += "\", \"detail\": \"";
    out += JsonEscape(entry.detail);
    out += "\"}";
  }
  out += "}";
  return out;
}

uint64_t HealthRegistry::transitions() const {
  MutexLock lock(mutex_);
  return transitions_;
}

void HealthRegistry::Reset() {
  MutexLock lock(mutex_);
  components_.clear();
  transitions_ = 0;
}

}  // namespace commsig::obs

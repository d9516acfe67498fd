#include "robust/fault_injector.h"

#include <cstdio>
#include <limits>

#include "obs/obs.h"

namespace commsig {

std::string FaultInjector::Report::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "dropped=%llu duplicated=%llu weights_corrupted=%llu "
                "times_corrupted=%llu swapped=%llu",
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(duplicated),
                static_cast<unsigned long long>(weights_corrupted),
                static_cast<unsigned long long>(times_corrupted),
                static_cast<unsigned long long>(swapped));
  return buf;
}

FaultInjector::FaultInjector(Options options)
    : options_(options), rng_(SplitMix64(options.seed ^ 0xfa017)) {}

std::vector<TraceEvent> FaultInjector::PerturbEvents(
    const std::vector<TraceEvent>& events) {
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    TraceEvent e = events[i];
    if (rng_.Bernoulli(options_.p_drop)) {
      ++report_.dropped;
      continue;
    }
    if (rng_.Bernoulli(options_.p_duplicate)) {
      ++report_.duplicated;
      out.push_back(e);
      out.push_back(e);
      continue;
    }
    if (rng_.Bernoulli(options_.p_corrupt_weight)) {
      ++report_.weights_corrupted;
      // Rotate through the ways a weight field goes bad in practice.
      switch (rng_.UniformInt(4)) {
        case 0: e.weight = std::numeric_limits<double>::quiet_NaN(); break;
        case 1: e.weight = std::numeric_limits<double>::infinity(); break;
        case 2: e.weight = -e.weight; break;
        default: e.weight *= 1e12; break;
      }
      out.push_back(e);
      continue;
    }
    if (rng_.Bernoulli(options_.p_corrupt_time)) {
      ++report_.times_corrupted;
      if (rng_.Bernoulli(0.5) && e.time > 0) {
        // Regression: jump backwards by up to the full current timestamp.
        e.time -= rng_.UniformInt(e.time) + 1;
      } else {
        e.time += rng_.UniformInt(1u << 20) + 1;
      }
      out.push_back(e);
      continue;
    }
    if (rng_.Bernoulli(options_.p_swap) && i + 1 < events.size()) {
      ++report_.swapped;
      out.push_back(events[i + 1]);
      out.push_back(e);
      ++i;
      continue;
    }
    out.push_back(e);
  }
  COMMSIG_COUNTER_ADD("robust/faults_injected", report_.Total());
  return out;
}

}  // namespace commsig

#include "sketch/space_saving.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/obs.h"

namespace commsig {

SpaceSaving::SpaceSaving(size_t capacity) : capacity_(capacity) {
  assert(capacity > 0);
  counters_.reserve(capacity);
}

void SpaceSaving::Add(uint64_t key, double weight) {
  assert(weight > 0.0);
  COMMSIG_COUNTER_ADD("sketch/ss_updates", 1);
  total_ += weight;

  auto it = counters_.find(key);
  if (it != counters_.end()) {
    it->second.count += weight;
    return;
  }
  if (counters_.size() < capacity_) {
    counters_.emplace(key, Counter{weight, 0.0});
    return;
  }
  // Evict the minimum-count key; the newcomer inherits its count as error.
  // Ties go to the smallest key, not to hash-map order, which a restored
  // checkpoint does not reproduce. Linear scan is fine at signature-sized
  // capacities (tens of entries).
  auto min_it = counters_.begin();
  for (auto i = counters_.begin(); i != counters_.end(); ++i) {
    if (i->second.count < min_it->second.count ||
        (i->second.count == min_it->second.count && i->first < min_it->first)) {
      min_it = i;
    }
  }
  COMMSIG_COUNTER_ADD("sketch/ss_evictions", 1);
  Counter evicted = min_it->second;
  counters_.erase(min_it);
  counters_.emplace(key, Counter{evicted.count + weight, evicted.count});
}

std::vector<SpaceSaving::Item> SpaceSaving::Items() const {
  std::vector<Item> items;
  items.reserve(counters_.size());
  for (const auto& [key, counter] : counters_) {
    items.push_back({key, counter.count, counter.error});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return items;
}

void SpaceSaving::AppendTo(ByteWriter& out) const {
  out.PutU64(capacity_);
  out.PutDouble(total_);
  out.PutU64(counters_.size());
  std::vector<uint64_t> keys;
  keys.reserve(counters_.size());
  for (const auto& [key, counter] : counters_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (uint64_t key : keys) {
    const Counter& c = counters_.at(key);
    out.PutU64(key);
    out.PutDouble(c.count);
    out.PutDouble(c.error);
  }
}

Result<SpaceSaving> SpaceSaving::FromBytes(ByteReader& in) {
  Result<uint64_t> capacity = in.U64();
  if (!capacity.ok()) return capacity.status();
  Result<double> total = in.Double();
  if (!total.ok()) return total.status();
  Result<uint64_t> size = in.U64();
  if (!size.ok()) return size.status();
  if (*capacity == 0 || *size > *capacity || !std::isfinite(*total) ||
      *total < 0.0) {
    return Status::Corruption("invalid SpaceSaving header");
  }
  // The constructor reserves `capacity` slots up front, and capacity may
  // legitimately exceed the serialized size (a half-full summary), so it
  // cannot be bounded by the remaining bytes. Cap it at a value far above
  // any real heavy-hitter configuration instead of letting a bit-flipped
  // header drive a multi-terabyte reserve.
  if (*capacity > (1ull << 20)) {
    return Status::Corruption("implausible SpaceSaving capacity");
  }
  SpaceSaving summary(*capacity);
  summary.total_ = *total;
  for (uint64_t i = 0; i < *size; ++i) {
    Result<uint64_t> key = in.U64();
    if (!key.ok()) return key.status();
    Result<double> count = in.Double();
    if (!count.ok()) return count.status();
    Result<double> error = in.Double();
    if (!error.ok()) return error.status();
    if (!std::isfinite(*count) || *count < 0.0 || !std::isfinite(*error) ||
        *error < 0.0 || *error > *count) {
      return Status::Corruption("invalid SpaceSaving counter");
    }
    if (!summary.counters_.emplace(*key, Counter{*count, *error}).second) {
      return Status::Corruption("duplicate SpaceSaving key");
    }
  }
  return summary;
}

double SpaceSaving::Estimate(uint64_t key) const {
  auto it = counters_.find(key);
  return it == counters_.end() ? 0.0 : it->second.count;
}

}  // namespace commsig

#ifndef COMMSIG_SKETCH_SPACE_SAVING_H_
#define COMMSIG_SKETCH_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace commsig {

/// SpaceSaving heavy-hitters summary [Metwally et al.]: tracks at most
/// `capacity` keys; when a new key arrives at a full summary it evicts the
/// key with the smallest count (the smallest key among ties) and inherits
/// that count as its error bound.
/// Guarantees: every key with true count > TotalWeight()/capacity is
/// retained, and for every tracked key
///   true count <= EstimatedCount <= true count + MaxError(key).
///
/// The streaming signature builder keeps one SpaceSaving per focal node to
/// recover its heaviest outgoing edges (approximate Top Talkers).
class SpaceSaving {
 public:
  explicit SpaceSaving(size_t capacity);

  /// Adds `weight` (> 0) to `key`.
  void Add(uint64_t key, double weight = 1.0);

  struct Item {
    uint64_t key = 0;
    double count = 0.0;  // upper-bound estimate
    double error = 0.0;  // count - error is a lower bound on the true count
  };

  /// Tracked items, heaviest first.
  std::vector<Item> Items() const;

  /// Upper-bound estimate for `key`; 0 if not tracked.
  double Estimate(uint64_t key) const;

  double TotalWeight() const { return total_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return counters_.size(); }

  /// Serializes the full summary state (checkpoint wire format). Entries
  /// are emitted in ascending key order so equal summaries serialize to
  /// identical bytes.
  void AppendTo(ByteWriter& out) const;

  /// Inverse of AppendTo. Corruption on malformed bytes.
  static Result<SpaceSaving> FromBytes(ByteReader& in);

 private:
  struct Counter {
    double count = 0.0;
    double error = 0.0;
  };

  size_t capacity_;
  double total_ = 0.0;
  std::unordered_map<uint64_t, Counter> counters_;
};

}  // namespace commsig

#endif  // COMMSIG_SKETCH_SPACE_SAVING_H_

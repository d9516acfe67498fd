#ifndef COMMSIG_ROBUST_RECORD_ERRORS_H_
#define COMMSIG_ROBUST_RECORD_ERRORS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace commsig {

/// What an ingestion reader does with a record it cannot decode.
///
/// The paper's target inputs — router NetFlow exports, query logs — arrive
/// truncated, corrupt and out of order; a single bad record must not abandon
/// gigabytes of good ones unless the caller asked for exactly that.
enum class ErrorPolicy {
  /// Abort the whole read on the first malformed record (the historical
  /// behaviour; right for curated test fixtures and round-trip checks).
  kFail,
  /// Drop malformed records, keep per-reason counters only.
  kSkip,
  /// Drop malformed records and retain them (reason, position, detail) in a
  /// RecordErrorLog dead-letter sink for later inspection or replay.
  kQuarantine,
};

/// Why a record was rejected. One stable code per failure class so operators
/// can alert on, e.g., a spike of kTruncated separately from kBadField.
enum class RecordErrorReason {
  kTruncated,            // input ended inside a record/packet
  kBadMagic,             // wrong version/magic in a binary header
  kBadRecordCount,       // packet header announces an impossible count
  kBadField,             // unparseable CSV field / wrong field count
  kZeroNode,             // empty node label (no identity to attach flows to)
  kNonPositiveWeight,    // weight <= 0
  kNonFiniteWeight,      // NaN / Inf weight
  kTimestampRegression,  // time ran backwards under require_monotonic_time
};

/// Short stable name for a reason ("truncated", "bad_field", ...). Used in
/// metric names and dead-letter dumps.
std::string_view RecordErrorReasonName(RecordErrorReason reason);

/// One quarantined record.
struct RecordError {
  RecordErrorReason reason;
  /// Line number (CSV) or byte offset (binary) of the offending record.
  uint64_t position = 0;
  std::string detail;
};

/// Dead-letter sink for rejected records.
///
/// Counts every rejection per reason and retains up to `max_retained`
/// detailed entries (the counters keep counting after the cap so budgets and
/// metrics stay exact). Also feeds the obs registry: each rejection bumps
/// `robust/quarantined_<reason>`.
class RecordErrorLog {
 public:
  explicit RecordErrorLog(size_t max_retained = 1024)
      : max_retained_(max_retained) {}

  void Record(RecordErrorReason reason, uint64_t position,
              std::string detail);

  /// Total rejections recorded (including beyond the retention cap).
  uint64_t total() const { return total_; }
  uint64_t count(RecordErrorReason reason) const;

  /// Retained entries, oldest first (at most `max_retained`).
  const std::vector<RecordError>& entries() const { return entries_; }

  /// Dumps the retained entries as CSV rows `reason,position,detail` —
  /// the dead-letter file an operator replays after fixing the producer.
  Status WriteCsv(const std::string& path) const;

  void Clear();

 private:
  static constexpr size_t kNumReasons = 8;

  size_t max_retained_;
  uint64_t total_ = 0;
  uint64_t per_reason_[kNumReasons] = {};
  std::vector<RecordError> entries_;
};

/// Run-wide rejection budget shared across every reader of an ingest (the
/// --max-total-errors flag). The per-file budget in IngestOptions protects
/// one file from dissolving into garbage; this one caps the whole run, so
/// a directory of mostly-rotten inputs fails loudly instead of each file
/// staying just under its own limit. Not thread-safe: one per ingest.
struct GlobalErrorBudget {
  /// Total rejected records allowed across all inputs; 0 disables.
  uint64_t max_total_errors = 0;
  /// Rejections charged so far (across files).
  uint64_t total = 0;

  bool exhausted() const {
    return max_total_errors > 0 && total > max_total_errors;
  }
};

/// Knobs shared by every lenient reader.
struct IngestOptions {
  ErrorPolicy policy = ErrorPolicy::kFail;

  /// Per-file error budget for kSkip/kQuarantine: after this many rejected
  /// records the read fails with Corruption anyway — a file that is mostly
  /// garbage should not silently dissolve into an empty trace. 0 disables
  /// the budget.
  uint64_t max_errors = 100000;

  /// Optional run-wide budget shared across readers (not owned; may be
  /// null). Charged once per rejection in addition to the per-file count;
  /// exhausting it fails the read with Corruption and emits one typed
  /// `budget_exhausted` log event.
  GlobalErrorBudget* global_budget = nullptr;

  /// When true, a record whose timestamp precedes the previous accepted
  /// record's is rejected with kTimestampRegression. Off by default: the
  /// windower tolerates arbitrary order, but exports that promise
  /// monotonicity can enforce it here.
  bool require_monotonic_time = false;

  /// Dead-letter sink for kQuarantine (may be null, in which case
  /// kQuarantine degrades to kSkip). Not owned.
  RecordErrorLog* error_log = nullptr;
};

namespace robust_internal {

/// Shared reader-side bookkeeping: applies the policy for one bad record.
/// Returns OK when the caller should skip the record and continue, or the
/// error to propagate when the policy (or exhausted budget) says stop.
/// `invalid_argument_on_fail` preserves each reader's historical kFail
/// status code (CSV readers report InvalidArgument, binary ones Corruption).
Status HandleBadRecord(const IngestOptions& options, uint64_t* errors_so_far,
                       RecordErrorReason reason, uint64_t position,
                       std::string detail,
                       bool invalid_argument_on_fail = false);

}  // namespace robust_internal

}  // namespace commsig

#endif  // COMMSIG_ROBUST_RECORD_ERRORS_H_

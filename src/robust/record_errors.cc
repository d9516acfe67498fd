#include "robust/record_errors.h"

#include "common/csv.h"
#include "obs/log.h"
#include "obs/obs.h"

namespace commsig {

std::string_view RecordErrorReasonName(RecordErrorReason reason) {
  switch (reason) {
    case RecordErrorReason::kTruncated:
      return "truncated";
    case RecordErrorReason::kBadMagic:
      return "bad_magic";
    case RecordErrorReason::kBadRecordCount:
      return "bad_record_count";
    case RecordErrorReason::kBadField:
      return "bad_field";
    case RecordErrorReason::kZeroNode:
      return "zero_node";
    case RecordErrorReason::kNonPositiveWeight:
      return "non_positive_weight";
    case RecordErrorReason::kNonFiniteWeight:
      return "non_finite_weight";
  }
  return "unknown";
}

namespace {

void BumpReasonCounter(RecordErrorReason reason) {
  // One switch per rejection keeps the macro's string literals (and their
  // cached registry lookups) per call site.
  switch (reason) {
    case RecordErrorReason::kTruncated:
      COMMSIG_COUNTER_ADD("robust/quarantined_truncated", 1);
      break;
    case RecordErrorReason::kBadMagic:
      COMMSIG_COUNTER_ADD("robust/quarantined_bad_magic", 1);
      break;
    case RecordErrorReason::kBadRecordCount:
      COMMSIG_COUNTER_ADD("robust/quarantined_bad_record_count", 1);
      break;
    case RecordErrorReason::kBadField:
      COMMSIG_COUNTER_ADD("robust/quarantined_bad_field", 1);
      break;
    case RecordErrorReason::kZeroNode:
      COMMSIG_COUNTER_ADD("robust/quarantined_zero_node", 1);
      break;
    case RecordErrorReason::kNonPositiveWeight:
      COMMSIG_COUNTER_ADD("robust/quarantined_non_positive_weight", 1);
      break;
    case RecordErrorReason::kNonFiniteWeight:
      COMMSIG_COUNTER_ADD("robust/quarantined_non_finite_weight", 1);
      break;
  }
}

}  // namespace

void RecordErrorLog::Record(RecordErrorReason reason, uint64_t position,
                            std::string detail) {
  ++total_;
  ++per_reason_[static_cast<size_t>(reason)];
  if (entries_.size() < max_retained_) {
    entries_.push_back({reason, position, std::move(detail)});
  }
}

uint64_t RecordErrorLog::count(RecordErrorReason reason) const {
  return per_reason_[static_cast<size_t>(reason)];
}

Status RecordErrorLog::WriteCsv(const std::string& path) const {
  CsvWriter writer(path);
  if (!writer.status().ok()) return writer.status();
  writer.WriteRow({"# commsig-dead-letter reason,position,detail"});
  for (const RecordError& e : entries_) {
    writer.WriteRow({std::string(RecordErrorReasonName(e.reason)),
                     std::to_string(e.position), e.detail});
  }
  return writer.Close();
}

void RecordErrorLog::Clear() {
  total_ = 0;
  for (uint64_t& c : per_reason_) c = 0;
  entries_.clear();
}

namespace robust_internal {

Status HandleBadRecord(const IngestOptions& options, uint64_t* errors_so_far,
                       RecordErrorReason reason, uint64_t position,
                       std::string detail, bool invalid_argument_on_fail) {
  if (options.policy == ErrorPolicy::kFail) {
    std::string msg = std::string(RecordErrorReasonName(reason)) + " at " +
                      std::to_string(position) + ": " + detail;
    return invalid_argument_on_fail ? Status::InvalidArgument(msg)
                                    : Status::Corruption(msg);
  }
  ++*errors_so_far;
  BumpReasonCounter(reason);
  COMMSIG_COUNTER_ADD("robust/records_rejected", 1);
  // Debug level: per-record detail is for forensics, not steady-state
  // operation (the readers' callers log one summary per ingest).
  obs::LogDebug("record_rejected")
      .Str("reason", RecordErrorReasonName(reason))
      .U64("position", position)
      .Str("detail", detail);
  if (options.error_log != nullptr) {
    options.error_log->Record(reason, position, std::move(detail));
  }
  if (options.max_errors > 0 && *errors_so_far > options.max_errors) {
    return Status::Corruption(
        "error budget exhausted: more than " +
        std::to_string(options.max_errors) +
        " malformed records (last: " +
        std::string(RecordErrorReasonName(reason)) + " at " +
        std::to_string(position) + ")");
  }
  if (options.global_budget != nullptr) {
    ++options.global_budget->total;
    if (options.global_budget->exhausted()) {
      obs::LogError("budget_exhausted")
          .Str("budget", "global")
          .U64("max_total_errors", options.global_budget->max_total_errors)
          .U64("total_rejected", options.global_budget->total)
          .Str("last_reason", RecordErrorReasonName(reason))
          .U64("last_position", position);
      COMMSIG_COUNTER_ADD("robust/global_budget_exhausted", 1);
      return Status::Corruption(
          "global error budget exhausted: more than " +
          std::to_string(options.global_budget->max_total_errors) +
          " malformed records across all inputs (last: " +
          std::string(RecordErrorReasonName(reason)) + " at " +
          std::to_string(position) + ")");
    }
  }
  return Status::OK();
}

}  // namespace robust_internal

}  // namespace commsig

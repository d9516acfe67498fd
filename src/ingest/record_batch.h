#ifndef COMMSIG_INGEST_RECORD_BATCH_H_
#define COMMSIG_INGEST_RECORD_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "robust/record_errors.h"

namespace commsig::ingest {

/// A label slice inside a batch's label arena, with its interner hash
/// precomputed by the parse worker so the serial merge stage only probes.
struct LabelRef {
  uint32_t offset = 0;
  uint32_t len = 0;
  uint64_t hash = 0;
};

/// "No label here" marker for ParsedRecord fields (the signature reader's
/// `owner,,anything` empty-signature rows have no member label).
inline constexpr uint32_t kNoLabel = 0xffffffffu;

/// One decoded, validated record. `src`/`dst` index into IngestBatch::labels
/// (chunk-deduplicated, first-reference order). Signature rows leave `time`
/// 0; signature marker rows leave `dst` kNoLabel.
struct ParsedRecord {
  uint32_t src = kNoLabel;
  uint32_t dst = kNoLabel;
  uint64_t time = 0;
  double weight = 0.0;
};

/// A row/packet the parse worker (or framer) decided is malformed. The
/// worker must not apply the error policy itself — kFail aborts and budget
/// exhaustion are decided in global stream order — so it records the
/// candidate and the merge stage replays robust_internal::HandleBadRecord
/// verbatim. `before_record` anchors the reject in stream order: it fires
/// after `before_record` accepted records of the same batch have been
/// merged. `position` is the chunk-relative data-line number for CSV
/// formats and the absolute byte offset for NetFlow.
struct RejectCandidate {
  uint32_t before_record = 0;
  RecordErrorReason reason = RecordErrorReason::kBadField;
  uint64_t position = 0;
  std::string detail;
};

/// One framed NetFlow packet inside RawChunk::data: `count` standard
/// 48-byte record bodies starting at `body_offset`, exported at
/// `unix_secs` (already validated by the framer's header walk).
struct PacketRef {
  uint32_t body_offset = 0;
  uint32_t count = 0;
  uint32_t unix_secs = 0;
};

/// A framing-level rejection (bad header, truncation), anchored before the
/// packet that would have followed it.
struct FramingReject {
  uint32_t before_packet = 0;
  RecordErrorReason reason = RecordErrorReason::kBadMagic;
  uint64_t position = 0;  // absolute byte offset
  std::string detail;
};

/// One framed unit of raw input, cut on record boundaries by the serial
/// framer stage: a run of whole CSV lines, or a run of whole NetFlow packet
/// bodies plus their descriptors. Buffers are reused across the pipeline
/// (Clear keeps capacity), so steady-state framing does no allocation.
struct RawChunk {
  uint64_t seq = 0;
  std::string data;
  std::vector<PacketRef> packets;          // NetFlow only
  std::vector<FramingReject> framing_rejects;  // NetFlow only

  void Clear() {
    data.clear();
    packets.clear();
    framing_rejects.clear();
  }
};

/// One parse worker's decoded output for one chunk, in chunk order:
/// validated records, reject candidates, and a deduplicated label arena.
/// Labels appear in first-reference order (the order an in-order read first
/// interns them), each with its precomputed hash, so the merge
/// stage interns each distinct chunk label exactly once and translates
/// records through the per-batch id map.
struct IngestBatch {
  uint64_t seq = 0;
  std::vector<ParsedRecord> records;
  std::vector<RejectCandidate> rejects;
  std::string label_data;
  std::vector<LabelRef> labels;
  uint64_t data_lines = 0;

  void Clear() {
    records.clear();
    rejects.clear();
    label_data.clear();
    labels.clear();
    data_lines = 0;
  }
};

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_RECORD_BATCH_H_

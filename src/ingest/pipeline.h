#ifndef COMMSIG_INGEST_PIPELINE_H_
#define COMMSIG_INGEST_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "core/signature_io.h"
#include "data/netflow.h"
#include "graph/windower.h"
#include "robust/record_errors.h"

namespace commsig::ingest {

/// Input format for the event-producing entry points.
enum class PipelineFormat {
  kTraceCsv,   // src,dst,time,weight rows (data/trace_io)
  kNetflowV5,  // concatenated v5 export packets (data/netflow)
};

struct PipelineOptions {
  /// Parse worker threads (clamped to >= 1). The framer and the merge run
  /// on their own serial stages regardless.
  int parse_workers = 1;
  /// Target raw bytes per framed chunk.
  size_t chunk_bytes = 256 * 1024;
  /// Bounded queue capacity (in chunks/batches) between each stage pair.
  /// A full queue blocks the stage that feeds it, so no chunk is dropped.
  size_t queue_capacity = 8;
  /// Error policy / budgets / quarantine sink, applied by the merge stage
  /// in exact stream order.
  IngestOptions ingest;
  /// Record filtering/weighting for kNetflowV5.
  NetflowReadOptions netflow;
};

/// Counters for one pipeline run, also published to the obs registry under
/// ingest/*.
struct PipelineStats {
  uint64_t chunks_framed = 0;
  uint64_t batches_merged = 0;
  uint64_t records_parsed = 0;  // accepted records entering the merge
  uint64_t producer_stalls = 0;
  uint64_t consumer_stalls = 0;
};

// The readers below are the only readers of commsig's input formats. Each
// runs framer -> parse workers -> in-order merge and returns exactly what
// a single-threaded pass over the file in stream order would: the same
// events/signatures, interner contents and id assignment (labels
// interned in first-reference order, never for a rejected row), error-log
// entries and positions (CSV data-line numbers, NetFlow byte offsets),
// budget charges and failure status, at every worker count and chunk size.
// The test-only reference readers in tests/ref/ are that single-threaded
// pass; tests/ingest/pipeline_test.cc holds the golden-hash equivalence
// tests against them.
//
// CSV rows: split on '\n' with one trailing '\r' stripped; blank lines
// and '#' comments are skipped and not counted; a final line without a
// newline is still read. Malformed rows and records are handled per
// `options.ingest` (fail / skip, per-file and run-wide
// budgets); the first rejection under kFail fails the read with
// InvalidArgument (CSV) or Corruption (NetFlow). A missing file is an
// IOError "cannot open <path>".

/// Reads trace events: `src,dst,time,weight` CSV rows (kTraceCsv) or
/// concatenated NetFlow v5 export packets (kNetflowV5, with header resync
/// after corrupt headers, truncated-final-packet salvage, and
/// `options.netflow` filtering/weighting; filtered and zero-weight records
/// are dropped silently).
Result<std::vector<TraceEvent>> ReadTraceEventsPipelined(
    const std::string& path, PipelineFormat format, Interner& interner,
    const PipelineOptions& options, PipelineStats* stats = nullptr);

/// Reads an `owner,member,weight` signature-set CSV (as written by
/// WriteSignatureSetCsv). Owners appear in first-seen order; entries of one
/// owner may be scattered through the file, and an `owner,,<any>` row
/// marks an owner with an empty signature.
Result<SignatureSet> ReadSignatureSetPipelined(const std::string& path,
                                               Interner& interner,
                                               const PipelineOptions& options,
                                               PipelineStats* stats = nullptr);

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_PIPELINE_H_

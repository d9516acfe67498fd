#ifndef COMMSIG_TESTS_REF_READERS_H_
#define COMMSIG_TESTS_REF_READERS_H_

// Reference readers: the test oracle for the ingestion pipeline
// (src/ingest/pipeline.h). Each reads its format in one single-threaded,
// in-order pass — a plain getline-and-split CsvReader for the CSV formats, a
// whole-file packet walk for NetFlow v5 — and applies the row decoders of
// ingest/record_decode.h and the error policy record by record. No framing,
// chunking, label deduplication or merge ordering, so comparing the
// pipeline against these at several worker counts and chunk sizes checks
// exactly the machinery the pipeline adds.

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "common/status.h"
#include "core/signature_io.h"
#include "data/netflow.h"
#include "graph/comm_graph.h"
#include "graph/windower.h"
#include "ingest/pipeline.h"
#include "robust/record_errors.h"

namespace commsig::ref {

/// Splits one CSV line on `delim`. Fields are not unescaped (commsig's
/// formats never quote fields); empty fields are preserved.
std::vector<std::string> SplitCsvLine(std::string_view line, char delim = ',');

/// Line-oriented CSV reader: std::getline, one trailing '\r' stripped,
/// blank lines and '#' comments skipped, fields split with SplitCsvLine.
class CsvReader {
 public:
  /// Opens `path`; check `status()` before use (IOError "cannot open
  /// <path>" when the file cannot be opened).
  explicit CsvReader(const std::string& path, char delim = ',');

  const Status& status() const { return status_; }

  /// Reads the next data line into `fields`. Returns false at EOF.
  bool Next(std::vector<std::string>& fields);

  /// Number of data lines consumed so far (for error positions).
  size_t line_number() const { return line_number_; }

 private:
  std::ifstream in_;
  char delim_;
  Status status_;
  size_t line_number_ = 0;
};

/// Trace CSV rows `src,dst,time,weight` (ingest::PipelineFormat::kTraceCsv).
Result<std::vector<TraceEvent>> ReadTrace(const std::string& path,
                                          Interner& interner,
                                          const IngestOptions& options = {});

/// NetFlow v5 export packets as events (PipelineFormat::kNetflowV5).
Result<std::vector<TraceEvent>> ReadNetflow(
    const std::string& path, Interner& interner,
    const IngestOptions& options = {}, const NetflowReadOptions& netflow = {});

/// Edge-list CSV rows `src,dst,weight` (ingest::ReadEdgeListPipelined).
Result<CommGraph> ReadEdgeList(const std::string& path, Interner& interner,
                               NodeId bipartite_left_size = 0,
                               const IngestOptions& options = {});

/// Signature-set CSV rows `owner,member,weight`
/// (ingest::ReadSignatureSetPipelined).
Result<SignatureSet> ReadSignatureSet(const std::string& path,
                                      Interner& interner,
                                      const IngestOptions& options = {});

/// Worker counts the reader suites run the pipeline at: the single-worker
/// default and a multi-worker count, where consecutive chunks go to
/// different lanes and the merge has to restore file order.
inline constexpr int kReaderWorkers[] = {1, 3};

/// Pipeline options at `workers` parse workers and 64-byte chunks (the
/// framer's floor), so every row class of a small corpus crosses a chunk
/// boundary.
inline ingest::PipelineOptions SmallChunks(int workers,
                                           const IngestOptions& ingest = {}) {
  ingest::PipelineOptions options;
  options.parse_workers = workers;
  options.chunk_bytes = 64;
  options.ingest = ingest;
  return options;
}

}  // namespace commsig::ref

#endif  // COMMSIG_TESTS_REF_READERS_H_

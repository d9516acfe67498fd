#ifndef COMMSIG_INGEST_CHUNKER_H_
#define COMMSIG_INGEST_CHUNKER_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "common/result.h"
#include "ingest/record_batch.h"

namespace commsig::ingest {

/// Input framing for the pipeline's IO stage.
enum class ChunkFormat {
  kCsvLines,   // cut on line boundaries (trace / signature CSV)
  kNetflowV5,  // cut on packet boundaries, validating headers while framing
};

/// The pipeline's serial IO/framing stage: reads the input in large blocks
/// and cuts it into RawChunks on record boundaries, so parse workers never
/// see a record split across chunks.
///
/// CSV framing cuts at the last newline inside ~chunk_bytes (extending past
/// the target when a single line is longer). NetFlow framing performs the
/// whole packet walk — header validation, forward resync after a corrupt
/// header and truncated-final-packet salvage — because those decisions need
/// the inter-packet stream state that only a serial stage has. Rejections
/// are not *applied* here (policy and budgets are stream-ordered,
/// merge-stage decisions); they are recorded as FramingRejects for the
/// merge stage to replay.
///
/// Each buffer refill evaluates the "ingest/frame" fail-point, so chaos
/// tests can kill the IO stage mid-stream.
class Chunker {
 public:
  /// Opens `path`. Check status() before calling Next.
  Chunker(const std::string& path, ChunkFormat format, size_t chunk_bytes);

  /// OK if the file opened (IOError "cannot open <path>" otherwise).
  const Status& status() const { return status_; }

  /// Frames the next chunk into `chunk` (Clear()ed first; `seq` assigned
  /// monotonically from 0). Returns false at end of input, or an IO /
  /// fail-point error.
  Result<bool> Next(RawChunk& chunk);

 private:
  Result<bool> NextCsv(RawChunk& chunk);
  Result<bool> NextNetflow(RawChunk& chunk);

  /// Reads one block from the file into buf_, compacting the consumed
  /// prefix first. Sets eof_ when the input is exhausted.
  Status Refill();

  size_t Avail() const { return buf_.size() - pos_; }
  const unsigned char* Cur() const {
    return reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  }
  /// Absolute byte offset of the next unconsumed byte.
  uint64_t AbsPos() const { return consumed_ + pos_; }

  std::ifstream in_;
  std::string path_;
  Status status_;
  ChunkFormat format_;
  size_t chunk_bytes_;

  std::string buf_;
  size_t pos_ = 0;         // consumed prefix of buf_
  uint64_t consumed_ = 0;  // absolute offset of buf_[0]
  bool eof_ = false;
  uint64_t next_seq_ = 0;

  // NetFlow packet-walk state carried across refills: scanning forward for
  // a plausible header.
  bool resyncing_ = false;
};

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_CHUNKER_H_

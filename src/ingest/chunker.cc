#include "ingest/chunker.h"

#include <algorithm>
#include <cstring>

#include "ingest/record_decode.h"
#include "robust/failpoints.h"

namespace commsig::ingest {

namespace {

constexpr size_t kHeaderBytes = 24;
constexpr size_t kRecordBytes = 48;
constexpr size_t kMaxRecordsPerPacket = 30;

// A header candidate during resync needs version 5 and a plausible count.
bool PlausibleHeader(const unsigned char* p) {
  if (ReadU16Be(p) != 5) return false;
  const uint16_t count = ReadU16Be(p + 2);
  return count >= 1 && count <= kMaxRecordsPerPacket;
}

}  // namespace

Chunker::Chunker(const std::string& path, ChunkFormat format,
                 size_t chunk_bytes, bool monotonic_time)
    : in_(path, std::ios::binary),
      path_(path),
      format_(format),
      // Tiny chunk sizes are allowed (tests use them to force many chunk
      // boundaries); only 0 is meaningless.
      chunk_bytes_(std::max<size_t>(chunk_bytes, 64)),
      monotonic_time_(monotonic_time) {
  if (!in_.is_open()) status_ = Status::IOError("cannot open " + path);
}

Status Chunker::Refill() {
  if (eof_) return Status::OK();
  Status injected = failpoints::Inject("ingest/frame");
  if (!injected.ok()) return injected;
  // Compact the consumed prefix so the buffer never grows past one read
  // block plus carry.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    consumed_ += pos_;
    pos_ = 0;
  }
  const size_t old_size = buf_.size();
  buf_.resize(old_size + chunk_bytes_);
  in_.read(buf_.data() + old_size, static_cast<std::streamsize>(chunk_bytes_));
  const size_t got = static_cast<size_t>(in_.gcount());
  buf_.resize(old_size + got);
  if (in_.bad()) return Status::IOError("read error on " + path_);
  if (got < chunk_bytes_) eof_ = true;
  return Status::OK();
}

Result<bool> Chunker::Next(RawChunk& chunk) {
  chunk.Clear();
  Result<bool> produced = format_ == ChunkFormat::kCsvLines
                              ? NextCsv(chunk)
                              : NextNetflow(chunk);
  if (produced.ok() && *produced) chunk.seq = next_seq_++;
  return produced;
}

Result<bool> Chunker::NextCsv(RawChunk& chunk) {
  // Buffer at least one target-sized block (or everything, at EOF).
  while (!eof_ && Avail() < chunk_bytes_) {
    Status s = Refill();
    if (!s.ok()) return s;
  }
  if (Avail() == 0) return false;

  const size_t window = std::min(Avail(), chunk_bytes_);
  std::string_view view(buf_.data() + pos_, Avail());
  size_t cut = view.substr(0, window).rfind('\n');
  if (cut != std::string_view::npos) {
    cut += 1;  // include the newline
  } else {
    // One line longer than the chunk target: extend to its newline (or
    // end of input), refilling as needed.
    while (true) {
      view = std::string_view(buf_.data() + pos_, Avail());
      const size_t nl = view.find('\n');
      if (nl != std::string_view::npos) {
        cut = nl + 1;
        break;
      }
      if (eof_) {
        cut = Avail();
        break;
      }
      Status s = Refill();
      if (!s.ok()) return s;
    }
  }
  chunk.data.assign(buf_.data() + pos_, cut);
  pos_ += cut;
  return true;
}

Result<bool> Chunker::NextNetflow(RawChunk& chunk) {
  while (true) {
    // A rejected packet's body is skipped without inspection.
    if (skip_bytes_ > 0) {
      const size_t take = std::min<uint64_t>(skip_bytes_, Avail());
      pos_ += take;
      skip_bytes_ -= take;
      if (skip_bytes_ > 0) {
        if (eof_) {
          skip_bytes_ = 0;  // input ended inside the skipped body
          break;
        }
        Status s = Refill();
        if (!s.ok()) return s;
        continue;
      }
    }

    // Resync: scan forward for the next plausible v5 header. A candidate
    // needs a full header's bytes in view; the unsearchable tail is carried
    // into the next refill (a header can straddle the block edge).
    if (resyncing_) {
      bool found = false;
      while (Avail() >= kHeaderBytes) {
        if (PlausibleHeader(Cur())) {
          found = true;
          break;
        }
        ++pos_;
      }
      if (!found) {
        if (eof_) {
          // No further header anywhere: the rest of the input is consumed
          // with no extra rejection.
          pos_ = buf_.size();
          break;
        }
        Status s = Refill();
        if (!s.ok()) return s;
        continue;
      }
      resyncing_ = false;
    }

    if (Avail() < kHeaderBytes) {
      if (!eof_) {
        Status s = Refill();
        if (!s.ok()) return s;
        continue;
      }
      if (Avail() > 0) {
        chunk.framing_rejects.push_back(
            {static_cast<uint32_t>(chunk.packets.size()),
             RecordErrorReason::kTruncated, AbsPos(),
             "trailing partial header"});
        pos_ = buf_.size();
      }
      break;
    }

    const unsigned char* hdr = Cur();
    const uint16_t version = ReadU16Be(hdr);
    const uint16_t count = ReadU16Be(hdr + 2);
    const uint32_t unix_secs = ReadU32Be(hdr + 8);
    if (version != 5) {
      std::string detail = "not a NetFlow v5 header (version ";
      detail += std::to_string(version);
      detail += ")";
      chunk.framing_rejects.push_back(
          {static_cast<uint32_t>(chunk.packets.size()),
           RecordErrorReason::kBadMagic, AbsPos(), std::move(detail)});
      pos_ += 1;
      resyncing_ = true;
      continue;
    }
    if (count == 0 || count > kMaxRecordsPerPacket) {
      std::string detail = "invalid record count ";
      detail += std::to_string(count);
      chunk.framing_rejects.push_back(
          {static_cast<uint32_t>(chunk.packets.size()),
           RecordErrorReason::kBadRecordCount, AbsPos(), std::move(detail)});
      pos_ += 1;
      resyncing_ = true;
      continue;
    }
    if (monotonic_time_ && have_last_secs_ && unix_secs < last_secs_) {
      std::string detail = "export time ";
      detail += std::to_string(unix_secs);
      detail += " precedes ";
      detail += std::to_string(last_secs_);
      chunk.framing_rejects.push_back(
          {static_cast<uint32_t>(chunk.packets.size()),
           RecordErrorReason::kTimestampRegression, AbsPos(),
           std::move(detail)});
      pos_ += kHeaderBytes;
      skip_bytes_ = static_cast<uint64_t>(count) * kRecordBytes;
      continue;
    }

    const size_t body_bytes = static_cast<size_t>(count) * kRecordBytes;
    if (Avail() < kHeaderBytes + body_bytes) {
      if (!eof_) {
        Status s = Refill();
        if (!s.ok()) return s;
        continue;
      }
      // Truncated final packet: salvage the whole records, then report the
      // cut — records first, rejection after, in stream order.
      const size_t whole = (Avail() - kHeaderBytes) / kRecordBytes;
      const uint64_t body_abs = AbsPos() + kHeaderBytes;
      if (whole > 0) {
        const size_t body_offset = chunk.data.size();
        chunk.data.append(buf_.data() + pos_ + kHeaderBytes,
                          whole * kRecordBytes);
        chunk.packets.push_back({static_cast<uint32_t>(body_offset),
                                 static_cast<uint32_t>(whole), unix_secs});
      }
      chunk.framing_rejects.push_back(
          {static_cast<uint32_t>(chunk.packets.size()),
           RecordErrorReason::kTruncated, body_abs + whole * kRecordBytes,
           "truncated NetFlow packet"});
      pos_ = buf_.size();
      break;
    }

    const size_t body_offset = chunk.data.size();
    chunk.data.append(buf_.data() + pos_ + kHeaderBytes, body_bytes);
    chunk.packets.push_back(
        {static_cast<uint32_t>(body_offset), count, unix_secs});
    have_last_secs_ = true;
    last_secs_ = unix_secs;
    pos_ += kHeaderBytes + body_bytes;

    if (chunk.data.size() >= chunk_bytes_) return true;
    if (Avail() == 0 && eof_) break;
  }
  return !chunk.packets.empty() || !chunk.framing_rejects.empty();
}

}  // namespace commsig::ingest

#include "ref/readers.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "ingest/record_decode.h"

namespace commsig::ref {

namespace {

constexpr size_t kHeaderBytes = 24;
constexpr size_t kRecordBytes = 48;
constexpr size_t kMaxRecordsPerPacket = 30;

/// Views of the first N fields of `row` (the decoders read at most N);
/// returns the total field count.
template <size_t N>
size_t FieldViews(const std::vector<std::string>& row,
                  std::string_view (&out)[N]) {
  for (size_t i = 0; i < row.size() && i < N; ++i) out[i] = row[i];
  return row.size();
}

std::string Ipv4Label(uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

}  // namespace

std::vector<std::string> SplitCsvLine(std::string_view line, char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = line.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      break;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

CsvReader::CsvReader(const std::string& path, char delim)
    : in_(path), delim_(delim) {
  if (!in_.is_open()) status_ = Status::IOError("cannot open " + path);
}

bool CsvReader::Next(std::vector<std::string>& fields) {
  std::string line;
  while (std::getline(in_, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    ++line_number_;
    fields = SplitCsvLine(line, delim_);
    return true;
  }
  return false;
}

Result<std::vector<TraceEvent>> ReadTrace(const std::string& path,
                                          Interner& interner,
                                          const IngestOptions& options) {
  CsvReader reader(path);
  if (!reader.status().ok()) return reader.status();
  std::vector<TraceEvent> events;
  std::vector<std::string> row;
  uint64_t errors = 0;
  while (reader.Next(row)) {
    // Validation happens fully before interning: a rejected row must not
    // grow the node universe.
    std::string_view fields[4];
    const size_t count = FieldViews(row, fields);
    ingest::TraceRow decoded;
    ingest::RowReject reject;
    if (!ingest::DecodeTraceRow(fields, count, decoded, reject)) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, reject.reason, reader.line_number(),
          std::move(reject.detail), /*invalid_argument_on_fail=*/true);
      if (!s.ok()) return s;
      continue;
    }
    events.push_back({interner.Intern(decoded.src),
                      interner.Intern(decoded.dst), decoded.time,
                      decoded.weight});
  }
  return events;
}

Result<std::vector<TraceEvent>> ReadNetflow(const std::string& path,
                                            Interner& interner,
                                            const IngestOptions& options,
                                            const NetflowReadOptions& netflow) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(data.data());
  const size_t size = data.size();

  // First offset >= `from` holding a plausible v5 header, or `size`.
  auto resync = [&](size_t from) {
    for (size_t o = from; o + kHeaderBytes <= size; ++o) {
      if (ingest::ReadU16Be(bytes + o) != 5) continue;
      const uint16_t count = ingest::ReadU16Be(bytes + o + 2);
      if (count >= 1 && count <= kMaxRecordsPerPacket) return o;
    }
    return size;
  };

  std::vector<TraceEvent> events;
  uint64_t errors = 0;
  size_t offset = 0;
  while (offset < size) {
    if (size - offset < kHeaderBytes) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kTruncated, offset,
          "trailing partial header");
      if (!s.ok()) return s;
      break;
    }
    const uint16_t version = ingest::ReadU16Be(bytes + offset);
    const uint16_t count = ingest::ReadU16Be(bytes + offset + 2);
    const uint32_t unix_secs = ingest::ReadU32Be(bytes + offset + 8);
    if (version != 5) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kBadMagic, offset,
          "not a NetFlow v5 header (version " + std::to_string(version) +
              ")");
      if (!s.ok()) return s;
      offset = resync(offset + 1);
      continue;
    }
    if (count == 0 || count > kMaxRecordsPerPacket) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kBadRecordCount, offset,
          "invalid record count " + std::to_string(count));
      if (!s.ok()) return s;
      offset = resync(offset + 1);
      continue;
    }
    const size_t body = offset + kHeaderBytes;
    // Whole records present in the buffer; a short final packet salvages
    // these and reports the cut as truncation.
    const size_t whole =
        std::min<size_t>(count, (size - body) / kRecordBytes);
    for (size_t i = 0; i < whole; ++i) {
      const NetflowV5Record r = ingest::DecodeNetflowRecord(
          bytes + body + i * kRecordBytes, unix_secs);
      double weight = 0.0;
      if (!ingest::NetflowEventWeight(r, netflow, weight)) continue;
      events.push_back({interner.Intern(Ipv4Label(r.src_addr)),
                        interner.Intern(Ipv4Label(r.dst_addr)), r.unix_secs,
                        weight});
    }
    if (whole < count) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kTruncated,
          body + whole * kRecordBytes, "truncated NetFlow packet");
      if (!s.ok()) return s;
      break;
    }
    offset = body + count * kRecordBytes;
  }
  return events;
}

Result<SignatureSet> ReadSignatureSet(const std::string& path,
                                      Interner& interner,
                                      const IngestOptions& options) {
  CsvReader reader(path);
  if (!reader.status().ok()) return reader.status();
  // Entries per owner, owners in first-seen order.
  std::vector<NodeId> order;
  std::unordered_map<NodeId, std::vector<Signature::Entry>> entries;
  std::vector<std::string> row;
  uint64_t errors = 0;
  while (reader.Next(row)) {
    std::string_view fields[3];
    const size_t count = FieldViews(row, fields);
    ingest::SignatureRow decoded;
    ingest::RowReject reject;
    const ingest::SignatureRowKind kind =
        ingest::DecodeSignatureRow(fields, count, decoded, reject);
    if (kind == ingest::SignatureRowKind::kReject) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, reject.reason, reader.line_number(),
          std::move(reject.detail), /*invalid_argument_on_fail=*/true);
      if (!s.ok()) return s;
      continue;
    }
    const NodeId owner = interner.Intern(decoded.owner);
    if (!entries.contains(owner)) {
      order.push_back(owner);
      entries.emplace(owner, std::vector<Signature::Entry>{});
    }
    if (kind == ingest::SignatureRowKind::kMarker) continue;
    entries[owner].push_back({interner.Intern(decoded.member), decoded.weight});
  }

  SignatureSet set;
  for (NodeId owner : order) {
    set.owners.push_back(owner);
    std::vector<Signature::Entry>& e = entries[owner];
    const size_t k = e.size();
    set.signatures.push_back(Signature::FromTopK(std::move(e), k));
  }
  return set;
}

}  // namespace commsig::ref

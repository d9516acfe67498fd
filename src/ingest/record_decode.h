#ifndef COMMSIG_INGEST_RECORD_DECODE_H_
#define COMMSIG_INGEST_RECORD_DECODE_H_

// Format-level record decoding for the ingestion pipeline: the parse
// workers validate rows and decode NetFlow records here, and the framer
// reads packet headers with the same big-endian helpers. Accept/reject
// decisions and rejection detail strings live in exactly one place. The
// test-only reference readers (tests/ref/) decode rows through these
// functions too, so the pipeline's equivalence tests pin framing, chunk
// ordering, interning and error accounting rather than restating the row
// grammar.

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/csv.h"
#include "data/netflow.h"
#include "graph/graph_builder.h"
#include "robust/record_errors.h"

namespace commsig::ingest {

/// A rejected row/record: the reason plus the detail string reported to
/// HandleBadRecord (and from there to the quarantine log).
struct RowReject {
  RecordErrorReason reason = RecordErrorReason::kBadField;
  std::string detail;
};

/// One decoded trace CSV row.
struct TraceRow {
  std::string_view src;
  std::string_view dst;
  uint64_t time = 0;
  double weight = 0.0;
};

/// Validates one trace CSV row already split into `count` total fields, the
/// first min(count, 4) of which are stored in `fields`. Returns false and
/// fills `reject` on a malformed row. Checks run in a fixed order (field
/// count, empty labels, time, weight, finiteness, positivity, the
/// kMaxRecordWeight bound); the first failing one names the rejection.
inline bool DecodeTraceRow(const std::string_view* fields, size_t count,
                           TraceRow& row, RowReject& reject) {
  if (count != 4) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "trace row needs 4 fields, got ";
    reject.detail += std::to_string(count);
    return false;
  }
  if (fields[0].empty() || fields[1].empty()) {
    reject.reason = RecordErrorReason::kZeroNode;
    reject.detail = "empty node label";
    return false;
  }
  if (fields[2].empty()) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "empty number";
    return false;
  }
  if (!TryParseUint(fields[2], row.time)) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "bad integer: ";
    reject.detail += fields[2];
    return false;
  }
  if (fields[3].empty()) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "empty number";
    return false;
  }
  if (!TryParseDouble(fields[3], row.weight)) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "bad double: ";
    reject.detail += fields[3];
    return false;
  }
  if (!std::isfinite(row.weight)) {
    reject.reason = RecordErrorReason::kNonFiniteWeight;
    reject.detail = "weight ";
    reject.detail += fields[3];
    return false;
  }
  if (row.weight <= 0.0) {
    reject.reason = RecordErrorReason::kNonPositiveWeight;
    reject.detail = "non-positive weight ";
    reject.detail += fields[3];
    return false;
  }
  if (row.weight > kMaxRecordWeight) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "weight above 2^64: ";
    reject.detail += fields[3];
    return false;
  }
  row.src = fields[0];
  row.dst = fields[1];
  return true;
}

/// Signature-set rows come in two accepted shapes: a signature entry and the
/// `owner,,anything` empty-signature marker (the marker's weight field is
/// not validated — it never was).
enum class SignatureRowKind { kEntry, kMarker, kReject };

struct SignatureRow {
  std::string_view owner;
  std::string_view member;
  double weight = 0.0;
};

inline SignatureRowKind DecodeSignatureRow(const std::string_view* fields,
                                           size_t count, SignatureRow& row,
                                           RowReject& reject) {
  if (count != 3) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "signature row needs 3 fields, got ";
    reject.detail += std::to_string(count);
    return SignatureRowKind::kReject;
  }
  if (fields[0].empty()) {
    reject.reason = RecordErrorReason::kZeroNode;
    reject.detail = "empty owner label";
    return SignatureRowKind::kReject;
  }
  row.owner = fields[0];
  if (fields[1].empty()) return SignatureRowKind::kMarker;
  if (fields[2].empty()) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "empty number";
    return SignatureRowKind::kReject;
  }
  if (!TryParseDouble(fields[2], row.weight)) {
    reject.reason = RecordErrorReason::kBadField;
    reject.detail = "bad double: ";
    reject.detail += fields[2];
    return SignatureRowKind::kReject;
  }
  if (!std::isfinite(row.weight)) {
    reject.reason = RecordErrorReason::kNonFiniteWeight;
    reject.detail = "weight ";
    reject.detail += fields[2];
    return SignatureRowKind::kReject;
  }
  if (row.weight <= 0.0) {
    reject.reason = RecordErrorReason::kNonPositiveWeight;
    reject.detail = "non-positive weight ";
    reject.detail += fields[2];
    return SignatureRowKind::kReject;
  }
  row.member = fields[1];
  return SignatureRowKind::kEntry;
}

/// Big-endian (network order) field readers for the packet framer and the
/// record decoder.
inline uint16_t ReadU16Be(const unsigned char* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}

inline uint32_t ReadU32Be(const unsigned char* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// Decodes one standard 48-byte NetFlow v5 record; `unix_secs` comes from
/// the enclosing packet header.
inline NetflowV5Record DecodeNetflowRecord(const unsigned char* rec,
                                           uint32_t unix_secs) {
  NetflowV5Record r;
  r.src_addr = ReadU32Be(rec);
  r.dst_addr = ReadU32Be(rec + 4);
  // rec+8: nexthop; rec+12: input/output ifindex.
  r.packets = ReadU32Be(rec + 16);
  r.octets = ReadU32Be(rec + 20);
  // rec+24: first; rec+28: last (sysuptime ms).
  r.src_port = ReadU16Be(rec + 32);
  r.dst_port = ReadU16Be(rec + 34);
  // rec+36: pad; rec+37: tcp_flags.
  r.protocol = rec[38];
  r.unix_secs = unix_secs;
  return r;
}

/// Applies NetflowReadOptions to one record. Returns false when the record
/// is silently skipped (protocol filter, non-positive weight); on true,
/// `weight` holds the event weight under the configured weighting.
inline bool NetflowEventWeight(const NetflowV5Record& r,
                               const NetflowReadOptions& options,
                               double& weight) {
  if (options.protocol_filter != 0 &&
      r.protocol != options.protocol_filter) {
    return false;
  }
  weight = 1.0;
  switch (options.weighting) {
    case NetflowWeighting::kFlows:
      weight = 1.0;
      break;
    case NetflowWeighting::kPackets:
      weight = static_cast<double>(r.packets);
      break;
    case NetflowWeighting::kOctets:
      weight = static_cast<double>(r.octets);
      break;
  }
  return weight > 0.0;
}

/// Formats an IPv4 address (host byte order) as dotted decimal into `buf`
/// (at least 16 bytes) and returns the length. Same text as
/// snprintf("%u.%u.%u.%u") without the format-machinery cost.
inline size_t FormatIpv4(uint32_t addr, char* buf) {
  char* p = buf;
  for (int shift = 24;; shift -= 8) {
    const unsigned v = (addr >> shift) & 0xff;
    if (v >= 100) {
      *p++ = static_cast<char>('0' + v / 100);
      *p++ = static_cast<char>('0' + (v / 10) % 10);
      *p++ = static_cast<char>('0' + v % 10);
    } else if (v >= 10) {
      *p++ = static_cast<char>('0' + v / 10);
      *p++ = static_cast<char>('0' + v % 10);
    } else {
      *p++ = static_cast<char>('0' + v);
    }
    if (shift == 0) break;
    *p++ = '.';
  }
  return static_cast<size_t>(p - buf);
}

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_RECORD_DECODE_H_

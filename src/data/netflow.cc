#include "data/netflow.h"

#include <algorithm>
#include <fstream>

#include "ingest/record_decode.h"

namespace commsig {

namespace {

constexpr size_t kHeaderBytes = 24;
constexpr size_t kRecordBytes = 48;
constexpr size_t kMaxRecordsPerPacket = 30;

// Big-endian (network order) writers; the read side lives in
// ingest/record_decode.h.
void WriteU16(unsigned char* p, uint16_t v) {
  p[0] = static_cast<unsigned char>(v >> 8);
  p[1] = static_cast<unsigned char>(v);
}
void WriteU32(unsigned char* p, uint32_t v) {
  p[0] = static_cast<unsigned char>(v >> 24);
  p[1] = static_cast<unsigned char>(v >> 16);
  p[2] = static_cast<unsigned char>(v >> 8);
  p[3] = static_cast<unsigned char>(v);
}

}  // namespace

std::string Ipv4ToString(uint32_t addr) {
  char buf[16];
  return std::string(buf, ingest::FormatIpv4(addr, buf));
}

Status WriteNetflowV5File(const std::vector<NetflowV5Record>& records,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  size_t cursor = 0;
  uint32_t sequence = 0;
  while (cursor < records.size()) {
    const size_t batch =
        std::min(kMaxRecordsPerPacket, records.size() - cursor);
    unsigned char header[kHeaderBytes] = {};
    WriteU16(header, 5);
    WriteU16(header + 2, static_cast<uint16_t>(batch));
    WriteU32(header + 4, 0);  // sysuptime
    WriteU32(header + 8, records[cursor].unix_secs);
    WriteU32(header + 12, 0);  // unix nsecs
    WriteU32(header + 16, sequence);
    out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
    for (size_t i = 0; i < batch; ++i) {
      const NetflowV5Record& r = records[cursor + i];
      unsigned char rec[kRecordBytes] = {};
      WriteU32(rec, r.src_addr);
      WriteU32(rec + 4, r.dst_addr);
      WriteU32(rec + 16, r.packets);
      WriteU32(rec + 20, r.octets);
      WriteU16(rec + 32, r.src_port);
      WriteU16(rec + 34, r.dst_port);
      rec[38] = r.protocol;
      out.write(reinterpret_cast<const char*>(rec), kRecordBytes);
    }
    sequence += static_cast<uint32_t>(batch);
    cursor += batch;
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed");
  return Status::OK();
}

}  // namespace commsig

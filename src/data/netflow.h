#ifndef COMMSIG_DATA_NETFLOW_H_
#define COMMSIG_DATA_NETFLOW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace commsig {

/// One NetFlow v5 flow record (the router-export format the paper cites as
/// the canonical source of aggregated communication "flows"). Only the
/// fields commsig consumes are modelled; the on-disk layout is the full
/// standard 48-byte record.
struct NetflowV5Record {
  uint32_t src_addr = 0;  // IPv4, host byte order
  uint32_t dst_addr = 0;
  uint32_t packets = 0;
  uint32_t octets = 0;
  uint32_t unix_secs = 0;  // export timestamp (from the packet header)
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;  // 6 = TCP, 17 = UDP
};

/// How a flow record maps onto an edge weight when NetFlow v5 exports are
/// read as events (ingest::PipelineFormat::kNetflowV5).
enum class NetflowWeighting {
  kFlows,    // each record contributes 1 (the paper's "TCP sessions")
  kPackets,  // dPkts
  kOctets,   // dOctets
};

struct NetflowReadOptions {
  NetflowWeighting weighting = NetflowWeighting::kFlows;
  /// Keep only this IP protocol (0 = all). The paper uses TCP only (6).
  uint8_t protocol_filter = 0;
};

/// Renders an IPv4 address (host byte order) as dotted decimal.
std::string Ipv4ToString(uint32_t addr);

/// Writes records as NetFlow v5 export packets (up to 30 records per
/// packet, per the standard). Used by tests and by simulators exporting
/// commsig workloads to external tools.
Status WriteNetflowV5File(const std::vector<NetflowV5Record>& records,
                          const std::string& path);

}  // namespace commsig

#endif  // COMMSIG_DATA_NETFLOW_H_

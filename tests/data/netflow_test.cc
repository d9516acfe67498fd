// NetFlow v5 export round trips, conversion and rejections: records written
// with WriteNetflowV5File are read back as events through the ingestion
// pipeline at every worker count in ref::kReaderWorkers with 64-byte chunks.

#include "data/netflow.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/pipeline.h"
#include "ref/readers.h"

namespace commsig {
namespace {

/// One event read back, with its node ids resolved to labels.
struct FlowEvent {
  std::string src;
  std::string dst;
  uint64_t time = 0;
  double weight = 0.0;

  friend bool operator==(const FlowEvent&, const FlowEvent&) = default;
};

Result<std::vector<FlowEvent>> ReadFlows(
    const std::string& path, int workers,
    const NetflowReadOptions& netflow = {}) {
  ingest::PipelineOptions options = ref::SmallChunks(workers);
  options.netflow = netflow;
  Interner interner;
  auto events = ingest::ReadTraceEventsPipelined(
      path, ingest::PipelineFormat::kNetflowV5, interner, options);
  if (!events.ok()) return events.status();
  std::vector<FlowEvent> flows;
  for (const TraceEvent& e : *events) {
    flows.push_back(
        {interner.LabelOf(e.src), interner.LabelOf(e.dst), e.time, e.weight});
  }
  return flows;
}

class NetflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_netflow_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

class NetflowToEventsTest : public NetflowTest {};

NetflowV5Record MakeRecord(uint32_t src, uint32_t dst, uint32_t secs,
                           uint8_t proto = 6) {
  NetflowV5Record r;
  r.src_addr = src;
  r.dst_addr = dst;
  r.packets = 10;
  r.octets = 4000;
  r.unix_secs = secs;
  r.src_port = 40000;
  r.dst_port = 443;
  r.protocol = proto;
  return r;
}

TEST(Ipv4ToStringTest, FormatsDottedDecimal) {
  EXPECT_EQ(Ipv4ToString(0x0A000001), "10.0.0.1");
  EXPECT_EQ(Ipv4ToString(0xC0A80164), "192.168.1.100");
  EXPECT_EQ(Ipv4ToString(0), "0.0.0.0");
  EXPECT_EQ(Ipv4ToString(0xFFFFFFFF), "255.255.255.255");
}

TEST_F(NetflowTest, RoundTripSinglePacket) {
  std::vector<NetflowV5Record> records = {
      MakeRecord(0x0A000001, 0x08080808, 1000),
      MakeRecord(0x0A000002, 0x08080404, 1000),
  };
  records[1].octets = 1500;
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  const std::vector<FlowEvent> expected = {
      {"10.0.0.1", "8.8.8.8", 1000, 4000.0},
      {"10.0.0.2", "8.8.4.4", 1000, 1500.0},
  };
  for (int workers : ref::kReaderWorkers) {
    SCOPED_TRACE(workers);
    auto loaded = ReadFlows(path_.string(), workers,
                            {.weighting = NetflowWeighting::kOctets});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, expected);
  }
}

TEST_F(NetflowTest, RoundTripMultiplePackets) {
  // 75 records -> 3 packets (30 + 30 + 15).
  std::vector<NetflowV5Record> records;
  for (uint32_t i = 0; i < 75; ++i) {
    records.push_back(MakeRecord(0x0A000000 + i, 0x08080808, 2000 + i));
  }
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  for (int workers : ref::kReaderWorkers) {
    SCOPED_TRACE(workers);
    auto loaded = ReadFlows(path_.string(), workers);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), 75u);
    // unix_secs is a per-packet header field: records in one packet share
    // the first record's timestamp.
    EXPECT_EQ((*loaded)[0].time, 2000u);
    EXPECT_EQ((*loaded)[29].time, 2000u);
    EXPECT_EQ((*loaded)[30].time, 2030u);
    EXPECT_EQ((*loaded)[60].time, 2060u);
    EXPECT_EQ((*loaded)[0].src, "10.0.0.0");
    EXPECT_EQ((*loaded)[74].src, "10.0.0.74");
    EXPECT_EQ((*loaded)[74].dst, "8.8.8.8");
  }
}

TEST_F(NetflowTest, EmptyFileYieldsNoRecords) {
  std::ofstream(path_).close();
  for (int workers : ref::kReaderWorkers) {
    auto loaded = ReadFlows(path_.string(), workers);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->empty());
  }
}

TEST_F(NetflowTest, RejectsWrongVersion) {
  std::vector<NetflowV5Record> records = {MakeRecord(1, 2, 3)};
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  // Corrupt the version field.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(0);
  char bad[2] = {0, 9};
  f.write(bad, 2);
  f.close();
  for (int workers : ref::kReaderWorkers) {
    auto loaded = ReadFlows(path_.string(), workers);
    EXPECT_TRUE(loaded.status().IsCorruption());
  }
}

TEST_F(NetflowTest, RejectsTruncatedPacket) {
  std::vector<NetflowV5Record> records = {MakeRecord(1, 2, 3),
                                          MakeRecord(4, 5, 6)};
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  // Chop the last 10 bytes.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 10);
  for (int workers : ref::kReaderWorkers) {
    auto loaded = ReadFlows(path_.string(), workers);
    EXPECT_TRUE(loaded.status().IsCorruption());
  }
}

TEST_F(NetflowTest, MissingFileIsIOError) {
  for (int workers : ref::kReaderWorkers) {
    auto loaded = ReadFlows("/no/such/flows.bin", workers);
    EXPECT_TRUE(loaded.status().IsIOError());
  }
}

TEST_F(NetflowToEventsTest, InternsDottedLabels) {
  ASSERT_TRUE(WriteNetflowV5File({MakeRecord(0x0A000001, 0x08080808, 100)},
                                 path_.string())
                  .ok());
  for (int workers : ref::kReaderWorkers) {
    auto events = ReadFlows(path_.string(), workers);
    ASSERT_TRUE(events.ok());
    ASSERT_EQ(events->size(), 1u);
    EXPECT_EQ((*events)[0].src, "10.0.0.1");
    EXPECT_EQ((*events)[0].dst, "8.8.8.8");
    EXPECT_EQ((*events)[0].time, 100u);
    EXPECT_DOUBLE_EQ((*events)[0].weight, 1.0);  // kFlows default
  }
}

TEST_F(NetflowToEventsTest, WeightingModes) {
  ASSERT_TRUE(WriteNetflowV5File({MakeRecord(1, 2, 3)}, path_.string()).ok());
  for (int workers : ref::kReaderWorkers) {
    auto by_packets = ReadFlows(path_.string(), workers,
                                {.weighting = NetflowWeighting::kPackets});
    ASSERT_TRUE(by_packets.ok());
    ASSERT_EQ(by_packets->size(), 1u);
    EXPECT_DOUBLE_EQ((*by_packets)[0].weight, 10.0);
    auto by_octets = ReadFlows(path_.string(), workers,
                               {.weighting = NetflowWeighting::kOctets});
    ASSERT_TRUE(by_octets.ok());
    ASSERT_EQ(by_octets->size(), 1u);
    EXPECT_DOUBLE_EQ((*by_octets)[0].weight, 4000.0);
  }
}

TEST_F(NetflowToEventsTest, ProtocolFilter) {
  ASSERT_TRUE(WriteNetflowV5File({MakeRecord(1, 2, 3, /*proto=*/6),    // TCP
                                  MakeRecord(4, 5, 6, /*proto=*/17)},  // UDP
                                 path_.string())
                  .ok());
  for (int workers : ref::kReaderWorkers) {
    auto tcp_only =
        ReadFlows(path_.string(), workers, {.protocol_filter = 6});
    ASSERT_TRUE(tcp_only.ok());
    ASSERT_EQ(tcp_only->size(), 1u);
    EXPECT_EQ((*tcp_only)[0].src, "0.0.0.1");
    auto all = ReadFlows(path_.string(), workers);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->size(), 2u);
  }
}

TEST_F(NetflowToEventsTest, DropsZeroWeightRecords) {
  NetflowV5Record r = MakeRecord(1, 2, 3);
  r.packets = 0;
  ASSERT_TRUE(WriteNetflowV5File({r}, path_.string()).ok());
  for (int workers : ref::kReaderWorkers) {
    auto events = ReadFlows(path_.string(), workers,
                            {.weighting = NetflowWeighting::kPackets});
    ASSERT_TRUE(events.ok());
    EXPECT_TRUE(events->empty());
  }
}

}  // namespace
}  // namespace commsig

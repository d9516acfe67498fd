#include "ingest/pipeline.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/netflow.h"
#include "graph/windower.h"
#include "ref/readers.h"

namespace commsig::ingest {
namespace {

// ---------------------------------------------------------------------------
// Golden-hash fingerprints: FNV-1a over every observable output of a read —
// events/graphs/signatures, the interner's id assignment, and the error log.
// The single-threaded reference readers (tests/ref/) and pipelined reads
// must produce the same hash bit for bit.
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void Mix(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void MixU64(uint64_t v) { Mix(&v, sizeof(v)); }
  void MixDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    MixU64(bits);
  }
  void MixString(std::string_view s) {
    MixU64(s.size());
    Mix(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t FingerprintInterner(const Interner& interner) {
  Fnv f;
  f.MixU64(interner.size());
  for (NodeId id = 0; id < interner.size(); ++id) {
    f.MixString(interner.LabelOf(id));
  }
  return f.value();
}

uint64_t FingerprintEvents(const std::vector<TraceEvent>& events,
                           const Interner& interner) {
  Fnv f;
  f.MixU64(events.size());
  for (const TraceEvent& e : events) {
    f.MixU64(e.src);
    f.MixU64(e.dst);
    f.MixU64(e.time);
    f.MixDouble(e.weight);
  }
  f.MixU64(FingerprintInterner(interner));
  return f.value();
}

uint64_t FingerprintGraph(const CommGraph& g) {
  Fnv f;
  f.MixU64(g.NumNodes());
  f.MixU64(g.NumEdges());
  f.MixDouble(g.TotalWeight());
  f.MixU64(g.bipartite().left_size);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    f.MixU64(g.OutRowDigest(v));
    f.MixU64(g.InRowDigest(v));
    f.MixDouble(g.OutWeight(v));
    f.MixDouble(g.InWeight(v));
  }
  return f.value();
}

uint64_t FingerprintSignatures(const SignatureSet& set,
                               const Interner& interner) {
  Fnv f;
  f.MixU64(set.size());
  for (size_t i = 0; i < set.size(); ++i) {
    f.MixU64(set.owners[i]);
    const Signature& sig = set.signatures[i];
    f.MixU64(sig.size());
    for (size_t j = 0; j < sig.size(); ++j) {
      f.MixU64(sig.entries()[j].node);
      f.MixDouble(sig.entries()[j].weight);
    }
  }
  f.MixU64(FingerprintInterner(interner));
  return f.value();
}

uint64_t FingerprintErrorLog(const RecordErrorLog& log) {
  Fnv f;
  f.MixU64(log.total());
  f.MixU64(log.entries().size());
  for (const RecordError& e : log.entries()) {
    f.MixU64(static_cast<uint64_t>(e.reason));
    f.MixU64(e.position);
    f.MixString(e.detail);
  }
  return f.value();
}

// ---------------------------------------------------------------------------
// Fixture: corpus files live in a per-test temp path.
// ---------------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_pipeline_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary);
    out << contents;
    ASSERT_TRUE(out.good());
  }

  std::string PathStr() const { return path_.string(); }

  std::filesystem::path path_;
};

/// A trace corpus with heavy label reuse (exercises chunk-level dedup),
/// fractional weights, and times that stride across window boundaries.
std::string CleanTraceCorpus(int rows) {
  std::string out = "# trace corpus\n";
  for (int i = 0; i < rows; ++i) {
    out += "host";
    out += std::to_string(i % 97);
    out += ",svc";
    out += std::to_string(i % 31);
    out += ",";
    out += std::to_string(1000 + i / 3);
    out += ",";
    out += std::to_string(1 + (i % 7));
    out += ".25\n";
  }
  return out;
}

std::string CorruptTraceCorpus() {
  std::string out;
  int t = 500;
  for (int i = 0; i < 200; ++i) {
    out += "a";
    out += std::to_string(i % 11);
    out += ",b";
    out += std::to_string(i % 5);
    out += ",";
    out += std::to_string(t++);
    out += ",2.5\n";
    switch (i % 5) {
      case 0:
        out += "only,three,fields\n";  // wrong field count
        break;
      case 1:
        out += "x,y,notatime,1\n";  // bad integer
        break;
      case 2:
        out += ",y,";
        out += std::to_string(t);
        out += ",1\n";  // empty label
        break;
      case 3:
        out += "x,y,";
        out += std::to_string(t);
        out += ",-3\n";  // non-positive weight
        break;
      default:
        break;  // clean row only
    }
  }
  return out;
}

const int kWorkerCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// Trace CSV.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, TraceCleanMatchesSerialAtEveryWorkerCount) {
  WriteFile(CleanTraceCorpus(5000));

  Interner serial_interner;
  auto serial = ref::ReadTrace(PathStr(), serial_interner);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const uint64_t golden = FingerprintEvents(*serial, serial_interner);

  for (int workers : kWorkerCounts) {
    for (size_t chunk_bytes : {size_t{64}, size_t{4096}, size_t{1 << 20}}) {
      Interner interner;
      PipelineOptions options;
      options.parse_workers = workers;
      options.chunk_bytes = chunk_bytes;
      options.queue_capacity = 2;
      PipelineStats stats;
      auto got = ReadTraceEventsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                          interner, options, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(FingerprintEvents(*got, interner), golden)
          << "workers=" << workers << " chunk=" << chunk_bytes;
      EXPECT_EQ(*got, *serial);
      EXPECT_GT(stats.chunks_framed, 0u);
      EXPECT_EQ(stats.records_parsed, got->size());
    }
  }
}

TEST_F(PipelineTest, TraceQuarantineLogMatchesSerial) {
  WriteFile(CorruptTraceCorpus());

  IngestOptions ingest;
  ingest.policy = ErrorPolicy::kQuarantine;
  RecordErrorLog serial_log;
  ingest.error_log = &serial_log;

  Interner serial_interner;
  auto serial = ref::ReadTrace(PathStr(), serial_interner, ingest);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial_log.total(), 0u);
  const uint64_t golden_events = FingerprintEvents(*serial, serial_interner);
  const uint64_t golden_log = FingerprintErrorLog(serial_log);

  for (int workers : kWorkerCounts) {
    Interner interner;
    RecordErrorLog log;
    PipelineOptions options;
    options.parse_workers = workers;
    options.chunk_bytes = 256;  // many chunks, rejects split across batches
    options.ingest.policy = ErrorPolicy::kQuarantine;
    options.ingest.error_log = &log;
    auto got = ReadTraceEventsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                        interner, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FingerprintEvents(*got, interner), golden_events);
    EXPECT_EQ(FingerprintErrorLog(log), golden_log) << "workers=" << workers;
  }
}

TEST_F(PipelineTest, TraceFailPolicyReproducesSerialStatus) {
  WriteFile("a,b,10,1\nbroken row\nc,d,11,1\n");

  Interner serial_interner;
  auto serial = ref::ReadTrace(PathStr(), serial_interner);
  ASSERT_FALSE(serial.ok());

  for (int workers : kWorkerCounts) {
    Interner interner;
    PipelineOptions options;
    options.parse_workers = workers;
    auto got = ReadTraceEventsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                        interner, options);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().ToString(), serial.status().ToString());
    // Interning stops at the failure point, exactly like the reference.
    EXPECT_EQ(FingerprintInterner(interner),
              FingerprintInterner(serial_interner));
  }
}

TEST_F(PipelineTest, TraceErrorBudgetExhaustionMatchesSerial) {
  WriteFile(CorruptTraceCorpus());

  IngestOptions ingest;
  ingest.policy = ErrorPolicy::kSkip;
  ingest.max_errors = 10;
  Interner serial_interner;
  auto serial = ref::ReadTrace(PathStr(), serial_interner, ingest);
  ASSERT_FALSE(serial.ok());

  for (int workers : kWorkerCounts) {
    Interner interner;
    PipelineOptions options;
    options.parse_workers = workers;
    options.chunk_bytes = 128;
    options.ingest.policy = ErrorPolicy::kSkip;
    options.ingest.max_errors = 10;
    auto got = ReadTraceEventsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                        interner, options);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().ToString(), serial.status().ToString());
    EXPECT_EQ(FingerprintInterner(interner),
              FingerprintInterner(serial_interner));
  }
}

TEST_F(PipelineTest, TraceMonotonicRejectionsMatchSerial) {
  std::string corpus;
  int t = 100;
  for (int i = 0; i < 300; ++i) {
    corpus += "n";
    corpus += std::to_string(i % 13);
    corpus += ",m";
    corpus += std::to_string(i % 7);
    corpus += ",";
    corpus += std::to_string(t);
    corpus += ",1\n";
    t += (i % 9 == 4) ? -3 : 2;  // periodic regressions
  }
  WriteFile(corpus);

  IngestOptions ingest;
  ingest.policy = ErrorPolicy::kQuarantine;
  ingest.require_monotonic_time = true;
  RecordErrorLog serial_log;
  ingest.error_log = &serial_log;
  Interner serial_interner;
  auto serial = ref::ReadTrace(PathStr(), serial_interner, ingest);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial_log.total(), 0u);

  for (int workers : kWorkerCounts) {
    Interner interner;
    RecordErrorLog log;
    PipelineOptions options;
    options.parse_workers = workers;
    options.chunk_bytes = 200;
    options.ingest.policy = ErrorPolicy::kQuarantine;
    options.ingest.require_monotonic_time = true;
    options.ingest.error_log = &log;
    auto got = ReadTraceEventsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                        interner, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FingerprintEvents(*got, interner),
              FingerprintEvents(*serial, serial_interner));
    EXPECT_EQ(FingerprintErrorLog(log), FingerprintErrorLog(serial_log));
  }
}

TEST_F(PipelineTest, MissingFileReproducesSerialStatus) {
  Interner serial_interner;
  auto serial = ref::ReadTrace("/nonexistent/trace.csv", serial_interner);
  ASSERT_FALSE(serial.ok());

  Interner interner;
  auto got = ReadTraceEventsPipelined(
      "/nonexistent/trace.csv", PipelineFormat::kTraceCsv, interner, {});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().ToString(), serial.status().ToString());
}

// ---------------------------------------------------------------------------
// Edge-list and signature-set CSV.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, EdgeListGraphMatchesSerialAtEveryWorkerCount) {
  std::string corpus;
  for (int i = 0; i < 2000; ++i) {
    // Repeated pairs: aggregation order must match the reference reader's.
    corpus += "u";
    corpus += std::to_string(i % 19);
    corpus += ",v";
    corpus += std::to_string(i % 23);
    corpus += ",";
    corpus += std::to_string(1 + i % 5);
    corpus += ".5\n";
  }
  WriteFile(corpus);

  Interner serial_interner;
  auto serial = ref::ReadEdgeList(PathStr(), serial_interner, /*left=*/19);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const uint64_t golden = FingerprintGraph(*serial);

  for (int workers : kWorkerCounts) {
    Interner interner;
    PipelineOptions options;
    options.parse_workers = workers;
    options.chunk_bytes = 512;
    auto got = ReadEdgeListPipelined(PathStr(), interner, /*left=*/19,
                                     options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FingerprintGraph(*got), golden) << "workers=" << workers;
    EXPECT_EQ(FingerprintInterner(interner),
              FingerprintInterner(serial_interner));
  }
}

TEST_F(PipelineTest, SignatureSetMatchesSerialIncludingEmptyMarkers) {
  std::string corpus;
  corpus += "alice,bob,3.5\n";
  corpus += "alice,carol,1.25\n";
  corpus += "lonely,,0\n";  // empty-signature marker row
  for (int i = 0; i < 500; ++i) {
    corpus += "owner";
    corpus += std::to_string(i % 17);
    corpus += ",peer";
    corpus += std::to_string(i % 41);
    corpus += ",";
    corpus += std::to_string(1 + i % 3);
    corpus += "\n";
  }
  corpus += "alice,dave,9\n";  // owner continues after other owners
  WriteFile(corpus);

  Interner serial_interner;
  auto serial = ref::ReadSignatureSet(PathStr(), serial_interner);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const uint64_t golden = FingerprintSignatures(*serial, serial_interner);

  for (int workers : kWorkerCounts) {
    Interner interner;
    PipelineOptions options;
    options.parse_workers = workers;
    options.chunk_bytes = 256;
    auto got = ReadSignatureSetPipelined(PathStr(), interner, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FingerprintSignatures(*got, interner), golden)
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// NetFlow v5.
// ---------------------------------------------------------------------------

std::vector<NetflowV5Record> MakeFlows(int n) {
  std::vector<NetflowV5Record> records;
  for (int i = 0; i < n; ++i) {
    NetflowV5Record r;
    r.src_addr = 0x0A000000u + static_cast<uint32_t>(i % 53);
    r.dst_addr = 0xC0A80000u + static_cast<uint32_t>(i % 29);
    r.packets = 10 + static_cast<uint32_t>(i % 4);
    r.octets = 4000 + static_cast<uint32_t>(i);
    r.unix_secs = 1000 + static_cast<uint32_t>(i / 25);
    r.src_port = 40000;
    r.dst_port = 443;
    r.protocol = (i % 3 == 0) ? 17 : 6;
    records.push_back(r);
  }
  return records;
}

TEST_F(PipelineTest, NetflowCleanMatchesSerialAtEveryWorkerCount) {
  ASSERT_TRUE(WriteNetflowV5File(MakeFlows(2000), PathStr()).ok());

  NetflowReadOptions netflow;
  netflow.weighting = NetflowWeighting::kOctets;

  Interner serial_interner;
  auto serial = ref::ReadNetflow(PathStr(), serial_interner, {}, netflow);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const uint64_t golden = FingerprintEvents(*serial, serial_interner);

  for (int workers : kWorkerCounts) {
    for (size_t chunk_bytes : {size_t{64}, size_t{8192}}) {
      Interner interner;
      PipelineOptions options;
      options.parse_workers = workers;
      options.chunk_bytes = chunk_bytes;
      options.netflow = netflow;
      auto got = ReadTraceEventsPipelined(
          PathStr(), PipelineFormat::kNetflowV5, interner, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(FingerprintEvents(*got, interner), golden)
          << "workers=" << workers << " chunk=" << chunk_bytes;
    }
  }
}

TEST_F(PipelineTest, NetflowCorruptStreamMatchesSerialQuarantine) {
  // Valid packets with garbage wedged between them and a truncated tail.
  std::filesystem::path clean = path_;
  clean += ".clean";
  ASSERT_TRUE(WriteNetflowV5File(MakeFlows(500), clean.string()).ok());
  std::ifstream in(clean, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(clean);
  // Corrupt a header version mid-stream, splice junk, truncate the tail.
  bytes[24 + 48 * 30] ^= 0x40;  // second packet's version bytes
  bytes.insert(bytes.size() / 2, "GARBAGEGARBAGE");
  bytes.resize(bytes.size() - 20);
  WriteFile(bytes);

  IngestOptions ingest;
  ingest.policy = ErrorPolicy::kQuarantine;
  RecordErrorLog serial_log;
  ingest.error_log = &serial_log;
  Interner serial_interner;
  auto serial = ref::ReadNetflow(PathStr(), serial_interner, ingest);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial_log.total(), 0u);
  const uint64_t golden_events = FingerprintEvents(*serial, serial_interner);
  const uint64_t golden_log = FingerprintErrorLog(serial_log);

  for (int workers : kWorkerCounts) {
    for (size_t chunk_bytes : {size_t{64}, size_t{4096}}) {
      Interner interner;
      RecordErrorLog log;
      PipelineOptions options;
      options.parse_workers = workers;
      options.chunk_bytes = chunk_bytes;
      options.ingest.policy = ErrorPolicy::kQuarantine;
      options.ingest.error_log = &log;
      auto got = ReadTraceEventsPipelined(
          PathStr(), PipelineFormat::kNetflowV5, interner, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(FingerprintEvents(*got, interner), golden_events)
          << "workers=" << workers << " chunk=" << chunk_bytes;
      EXPECT_EQ(FingerprintErrorLog(log), golden_log)
          << "workers=" << workers << " chunk=" << chunk_bytes;
    }
  }
}

TEST_F(PipelineTest, NetflowMonotonicHeaderRejectionsMatchSerial) {
  std::vector<NetflowV5Record> flows = MakeFlows(300);
  // Force export-time regressions between packets (25 records per time
  // step, 30 per packet -> some packets regress).
  for (size_t i = 100; i < 150; ++i) flows[i].unix_secs = 900;
  WriteFile("");  // placeholder so TearDown removes the path
  ASSERT_TRUE(WriteNetflowV5File(flows, PathStr()).ok());

  IngestOptions ingest;
  ingest.policy = ErrorPolicy::kQuarantine;
  ingest.require_monotonic_time = true;
  RecordErrorLog serial_log;
  ingest.error_log = &serial_log;
  Interner serial_interner;
  auto serial = ref::ReadNetflow(PathStr(), serial_interner, ingest);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial_log.total(), 0u);

  for (int workers : kWorkerCounts) {
    Interner interner;
    RecordErrorLog log;
    PipelineOptions options;
    options.parse_workers = workers;
    options.chunk_bytes = 1024;
    options.ingest.policy = ErrorPolicy::kQuarantine;
    options.ingest.require_monotonic_time = true;
    options.ingest.error_log = &log;
    auto got = ReadTraceEventsPipelined(
        PathStr(), PipelineFormat::kNetflowV5, interner, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FingerprintEvents(*got, interner),
              FingerprintEvents(*serial, serial_interner));
    EXPECT_EQ(FingerprintErrorLog(log), FingerprintErrorLog(serial_log));
  }
}

// ---------------------------------------------------------------------------
// Sharded windowing.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, WindowedReadMatchesSerialSplitAtEveryShardCount) {
  WriteFile(CleanTraceCorpus(6000));

  Interner serial_interner;
  auto serial = ref::ReadTrace(PathStr(), serial_interner);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  TraceWindower windower(serial_interner.size(), /*window_length=*/100,
                         /*start_time=*/1000);
  std::vector<CommGraph> golden = windower.Split(*serial);
  ASSERT_GT(golden.size(), 1u);

  for (int workers : {1, 2}) {
    for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
      Interner interner;
      PipelineOptions options;
      options.parse_workers = workers;
      options.chunk_bytes = 4096;
      WindowedReadOptions window_options;
      window_options.window_length = 100;
      window_options.start_time = 1000;
      window_options.shards = shards;
      auto got = ReadWindowsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                      interner, window_options, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), golden.size())
          << "workers=" << workers << " shards=" << shards;
      for (size_t w = 0; w < golden.size(); ++w) {
        EXPECT_EQ(FingerprintGraph((*got)[w]), FingerprintGraph(golden[w]))
            << "window=" << w << " workers=" << workers
            << " shards=" << shards;
      }
    }
  }
}

TEST_F(PipelineTest, WindowedReadSkipsEventsBeforeStartTime) {
  WriteFile("a,b,5,1\nc,d,50,2\ne,f,55,3\n");

  Interner serial_interner;
  auto serial = ref::ReadTrace(PathStr(), serial_interner);
  ASSERT_TRUE(serial.ok());
  TraceWindower windower(serial_interner.size(), 10, 40);
  std::vector<CommGraph> golden = windower.Split(*serial);

  Interner interner;
  WindowedReadOptions window_options;
  window_options.window_length = 10;
  window_options.start_time = 40;
  window_options.shards = 2;
  auto got = ReadWindowsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                  interner, window_options, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), golden.size());
  for (size_t w = 0; w < golden.size(); ++w) {
    EXPECT_EQ(FingerprintGraph((*got)[w]), FingerprintGraph(golden[w]));
  }
}

// ---------------------------------------------------------------------------
// Back-pressure policies.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ShedModeCompletesAndAccountsChunks) {
  WriteFile(CleanTraceCorpus(4000));

  Interner interner;
  PipelineOptions options;
  options.parse_workers = 2;
  options.chunk_bytes = 128;
  options.queue_capacity = 1;
  options.backpressure = BackpressurePolicy::kShed;
  PipelineStats stats;
  auto got = ReadTraceEventsPipelined(PathStr(), PipelineFormat::kTraceCsv,
                                      interner, options, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Shedding may or may not trigger depending on scheduling, but every
  // framed chunk is either delivered or counted as shed, never lost.
  EXPECT_GT(stats.chunks_framed + stats.chunks_shed, 0u);
  EXPECT_EQ(stats.batches_merged, stats.chunks_framed);
  EXPECT_EQ(stats.records_parsed, got->size());
}

}  // namespace
}  // namespace commsig::ingest

// Trace CSV round trips and rejections, read through the ingestion pipeline
// at every worker count in ref::kReaderWorkers with 64-byte chunks.

#include "data/trace_io.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "ingest/pipeline.h"
#include "ref/readers.h"

namespace commsig {
namespace {

Result<std::vector<TraceEvent>> ReadTrace(const std::string& path,
                                          Interner& interner, int workers) {
  return ingest::ReadTraceEventsPipelined(
      path, ingest::PipelineFormat::kTraceCsv, interner,
      ref::SmallChunks(workers));
}

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_trace_io_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void WriteFile(const char* contents) {
    std::ofstream out(path_);
    out << contents;
  }

  std::filesystem::path path_;
};

TEST_F(TraceIoTest, RoundTrip) {
  Interner interner;
  NodeId a = interner.Intern("host-a");
  NodeId b = interner.Intern("ext-b");
  std::vector<TraceEvent> events = {{a, b, 100, 2.0}, {a, b, 250, 1.0}};
  ASSERT_TRUE(WriteTraceCsv(events, interner, path_.string()).ok());

  for (int workers : ref::kReaderWorkers) {
    SCOPED_TRACE(workers);
    Interner interner2;
    auto loaded = ReadTrace(path_.string(), interner2, workers);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ((*loaded)[0].time, 100u);
    EXPECT_DOUBLE_EQ((*loaded)[0].weight, 2.0);
    EXPECT_EQ((*loaded)[1].time, 250u);
    EXPECT_EQ(interner2.LabelOf((*loaded)[0].src), "host-a");
    EXPECT_EQ(interner2.LabelOf((*loaded)[0].dst), "ext-b");
  }
}

TEST_F(TraceIoTest, RejectsShortRows) {
  WriteFile("a,b,5\n");
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    EXPECT_FALSE(ReadTrace(path_.string(), interner, workers).ok());
  }
}

TEST_F(TraceIoTest, RejectsBadTime) {
  WriteFile("a,b,yesterday,1\n");
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    EXPECT_FALSE(ReadTrace(path_.string(), interner, workers).ok());
  }
}

TEST_F(TraceIoTest, RejectsNonPositiveWeight) {
  WriteFile("a,b,5,0\n");
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    EXPECT_FALSE(ReadTrace(path_.string(), interner, workers).ok());
  }
}

TEST_F(TraceIoTest, MissingFileIsIOError) {
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    auto r = ReadTrace("/no/such/trace.csv", interner, workers);
    EXPECT_TRUE(r.status().IsIOError());
  }
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  Interner interner;
  ASSERT_TRUE(WriteTraceCsv({}, interner, path_.string()).ok());
  for (int workers : ref::kReaderWorkers) {
    Interner interner2;
    auto loaded = ReadTrace(path_.string(), interner2, workers);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->empty());
  }
}

}  // namespace
}  // namespace commsig

// Edge-list CSV round trips and rejections, read through the ingestion
// pipeline at every worker count in ref::kReaderWorkers with 64-byte chunks.

#include "graph/graph_io.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "ingest/pipeline.h"
#include "ref/readers.h"

namespace commsig {
namespace {

Result<CommGraph> ReadEdgeList(const std::string& path, Interner& interner,
                               int workers, NodeId left = 0) {
  return ingest::ReadEdgeListPipelined(path, interner, left,
                                       ref::SmallChunks(workers));
}

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_graph_io_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(GraphIoTest, RoundTrip) {
  Interner interner;
  NodeId a = interner.Intern("alpha");
  NodeId b = interner.Intern("beta");
  NodeId c = interner.Intern("gamma");
  GraphBuilder builder(3);
  builder.AddEdge(a, b, 2.5);
  builder.AddEdge(b, c, 1.0);
  builder.AddEdge(a, c, 4.0);
  CommGraph g = std::move(builder).Build();

  ASSERT_TRUE(WriteEdgeListCsv(g, interner, path_.string()).ok());

  for (int workers : ref::kReaderWorkers) {
    SCOPED_TRACE(workers);
    Interner interner2;
    auto loaded = ReadEdgeList(path_.string(), interner2, workers);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->NumEdges(), 3u);
    NodeId a2 = interner2.Find("alpha");
    NodeId b2 = interner2.Find("beta");
    NodeId c2 = interner2.Find("gamma");
    ASSERT_NE(a2, kInvalidNode);
    EXPECT_DOUBLE_EQ(loaded->EdgeWeight(a2, b2), 2.5);
    EXPECT_DOUBLE_EQ(loaded->EdgeWeight(a2, c2), 4.0);
    EXPECT_DOUBLE_EQ(loaded->TotalWeight(), g.TotalWeight());
  }
}

TEST_F(GraphIoTest, ReadAggregatesDuplicateRows) {
  {
    std::ofstream out(path_);
    out << "x,y,1.5\nx,y,2.5\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    auto g = ReadEdgeList(path_.string(), interner, workers);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->NumEdges(), 1u);
    EXPECT_DOUBLE_EQ(g->EdgeWeight(interner.Find("x"), interner.Find("y")),
                     4.0);
  }
}

TEST_F(GraphIoTest, ReadRejectsBadFieldCount) {
  {
    std::ofstream out(path_);
    out << "x,y\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    auto g = ReadEdgeList(path_.string(), interner, workers);
    EXPECT_FALSE(g.ok());
    EXPECT_TRUE(g.status().IsInvalidArgument());
  }
}

TEST_F(GraphIoTest, ReadRejectsNonPositiveWeight) {
  {
    std::ofstream out(path_);
    out << "x,y,0\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    EXPECT_FALSE(ReadEdgeList(path_.string(), interner, workers).ok());
  }
}

TEST_F(GraphIoTest, ReadRejectsUnparsableWeight) {
  {
    std::ofstream out(path_);
    out << "x,y,heavy\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    EXPECT_FALSE(ReadEdgeList(path_.string(), interner, workers).ok());
  }
}

TEST_F(GraphIoTest, BipartiteLeftSizeApplied) {
  {
    std::ofstream out(path_);
    out << "u,t,1\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    auto g = ReadEdgeList(path_.string(), interner, workers, /*left=*/1);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g->bipartite().IsBipartite());
    EXPECT_TRUE(g->InLeftPartition(interner.Find("u")));
    EXPECT_FALSE(g->InLeftPartition(interner.Find("t")));
  }
}

TEST(GraphIoErrorTest, MissingFile) {
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    auto g = ReadEdgeList("/no/such/file.csv", interner, workers);
    EXPECT_FALSE(g.ok());
    EXPECT_TRUE(g.status().IsIOError());
  }
}

}  // namespace
}  // namespace commsig

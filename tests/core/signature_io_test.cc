// Signature-set CSV round trips and rejections, read through the ingestion
// pipeline at every worker count in ref::kReaderWorkers with 64-byte chunks.

#include "core/signature_io.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "ingest/pipeline.h"
#include "ref/readers.h"

namespace commsig {
namespace {

Result<SignatureSet> ReadSignatureSet(const std::string& path,
                                      Interner& interner, int workers) {
  return ingest::ReadSignatureSetPipelined(path, interner,
                                           ref::SmallChunks(workers));
}

Signature Sig(std::vector<Signature::Entry> entries) {
  return Signature::FromTopK(std::move(entries), 100);
}

class SignatureIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_sig_io_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(SignatureIoTest, RoundTrip) {
  Interner interner;
  NodeId alice = interner.Intern("alice");
  NodeId bob = interner.Intern("bob");
  NodeId mom = interner.Intern("mom");
  NodeId pizza = interner.Intern("pizza");

  SignatureSet set;
  set.owners = {alice, bob};
  set.signatures = {Sig({{mom, 0.75}, {pizza, 0.25}}), Sig({{mom, 1.0}})};
  ASSERT_TRUE(WriteSignatureSetCsv(set, interner, path_.string()).ok());

  for (int workers : ref::kReaderWorkers) {
    SCOPED_TRACE(workers);
    Interner interner2;
    auto loaded = ReadSignatureSet(path_.string(), interner2, workers);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ(interner2.LabelOf(loaded->owners[0]), "alice");
    EXPECT_EQ(interner2.LabelOf(loaded->owners[1]), "bob");
    EXPECT_DOUBLE_EQ(
        loaded->signatures[0].WeightOf(interner2.Find("mom")), 0.75);
    EXPECT_DOUBLE_EQ(
        loaded->signatures[0].WeightOf(interner2.Find("pizza")), 0.25);
    EXPECT_EQ(loaded->signatures[1].size(), 1u);
  }
}

TEST_F(SignatureIoTest, EmptySignatureRoundTrips) {
  Interner interner;
  NodeId quiet = interner.Intern("quiet-host");
  SignatureSet set;
  set.owners = {quiet};
  set.signatures = {Signature()};
  ASSERT_TRUE(WriteSignatureSetCsv(set, interner, path_.string()).ok());

  for (int workers : ref::kReaderWorkers) {
    Interner interner2;
    auto loaded = ReadSignatureSet(path_.string(), interner2, workers);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_TRUE(loaded->signatures[0].empty());
  }
}

TEST_F(SignatureIoTest, EmptySetRoundTrips) {
  Interner interner;
  ASSERT_TRUE(
      WriteSignatureSetCsv(SignatureSet{}, interner, path_.string()).ok());
  for (int workers : ref::kReaderWorkers) {
    Interner interner2;
    auto loaded = ReadSignatureSet(path_.string(), interner2, workers);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->size(), 0u);
  }
}

TEST_F(SignatureIoTest, RejectsMismatchedSet) {
  Interner interner;
  SignatureSet set;
  set.owners = {interner.Intern("x")};
  EXPECT_TRUE(WriteSignatureSetCsv(set, interner, path_.string())
                  .IsInvalidArgument());
}

TEST_F(SignatureIoTest, RejectsBadRows) {
  {
    std::ofstream out(path_);
    out << "owner,member\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    EXPECT_FALSE(ReadSignatureSet(path_.string(), interner, workers).ok());
  }
}

TEST_F(SignatureIoTest, RejectsNonPositiveWeights) {
  {
    std::ofstream out(path_);
    out << "owner,member,-1\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    EXPECT_FALSE(ReadSignatureSet(path_.string(), interner, workers).ok());
  }
}

TEST_F(SignatureIoTest, ScatteredOwnerRowsAggregate) {
  {
    std::ofstream out(path_);
    out << "a,x,1\nb,y,2\na,z,3\n";
  }
  for (int workers : ref::kReaderWorkers) {
    Interner interner;
    auto loaded = ReadSignatureSet(path_.string(), interner, workers);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), 2u);
    size_t a = loaded->Find(interner.Find("a"));
    ASSERT_NE(a, SIZE_MAX);
    EXPECT_EQ(loaded->signatures[a].size(), 2u);
  }
}

TEST(SignatureSetTest, FindMissingReturnsSentinel) {
  SignatureSet set;
  EXPECT_EQ(set.Find(42), SIZE_MAX);
}

}  // namespace
}  // namespace commsig

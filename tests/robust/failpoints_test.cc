#include "robust/failpoints.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace commsig {
namespace {

namespace fs = std::filesystem;

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoints::Enabled()) {
      GTEST_SKIP() << "built without COMMSIG_FAILPOINTS";
    }
    FailPointRegistry::Global().Reset();
  }
  void TearDown() override { FailPointRegistry::Global().Reset(); }
};

TEST_F(FailPointTest, UnarmedSiteNeverFires) {
  EXPECT_EQ(FailPointRegistry::Global().Evaluate("nowhere"),
            FailPointKind::kOff);
  EXPECT_TRUE(failpoints::Inject("nowhere").ok());
  EXPECT_TRUE(FailPointRegistry::Global().ArmedSites().empty());
}

TEST_F(FailPointTest, FiresOnConfiguredHitWindow) {
  auto& reg = FailPointRegistry::Global();
  reg.Arm("io/site", {FailPointKind::kEio, /*after=*/2, /*count=*/2});
  EXPECT_FALSE(reg.ArmedSites().empty());
  EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kOff);   // hit 1
  EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kOff);   // hit 2
  EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kEio);   // hit 3
  EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kEio);   // hit 4
  EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kOff);   // hit 5
  auto stats = reg.stats("io/site");
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.fires, 2u);
}

TEST_F(FailPointTest, CountZeroFiresForever) {
  auto& reg = FailPointRegistry::Global();
  reg.Arm("io/site", {FailPointKind::kEnospc, 0, 0});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kEnospc);
  }
}

TEST_F(FailPointTest, DisarmStopsFiring) {
  auto& reg = FailPointRegistry::Global();
  reg.Arm("io/site", {FailPointKind::kEio, 0, 0});
  EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kEio);
  reg.Disarm("io/site");
  EXPECT_EQ(reg.Evaluate("io/site"), FailPointKind::kOff);
  EXPECT_TRUE(reg.ArmedSites().empty());
}

TEST_F(FailPointTest, ArmFromSpecParsesSitesAndModifiers) {
  auto& reg = FailPointRegistry::Global();
  ASSERT_TRUE(reg
                  .ArmFromSpec(
                      "checkpoint/write=enospc@2;telemetry/flush=eio@1x2;"
                      "checkpoint/fsync=fsync_fail")
                  .ok());
  auto sites = reg.ArmedSites();
  EXPECT_EQ(sites.size(), 3u);
  // checkpoint/write=enospc@2: skips two hits, then fires once.
  EXPECT_EQ(reg.Evaluate("checkpoint/write"), FailPointKind::kOff);
  EXPECT_EQ(reg.Evaluate("checkpoint/write"), FailPointKind::kOff);
  EXPECT_EQ(reg.Evaluate("checkpoint/write"), FailPointKind::kEnospc);
  EXPECT_EQ(reg.Evaluate("checkpoint/write"), FailPointKind::kOff);
  // telemetry/flush=eio@1x2: skips one, fires twice.
  EXPECT_EQ(reg.Evaluate("telemetry/flush"), FailPointKind::kOff);
  EXPECT_EQ(reg.Evaluate("telemetry/flush"), FailPointKind::kEio);
  EXPECT_EQ(reg.Evaluate("telemetry/flush"), FailPointKind::kEio);
  EXPECT_EQ(reg.Evaluate("telemetry/flush"), FailPointKind::kOff);
  // bare kind: fires on the first hit.
  EXPECT_EQ(reg.Evaluate("checkpoint/fsync"), FailPointKind::kFsyncFail);
}

TEST_F(FailPointTest, ArmFromSpecRejectsGarbage) {
  auto& reg = FailPointRegistry::Global();
  EXPECT_FALSE(reg.ArmFromSpec("nonsense").ok());
  EXPECT_FALSE(reg.ArmFromSpec("site=notakind").ok());
  EXPECT_FALSE(reg.ArmFromSpec("=eio").ok());
  EXPECT_FALSE(reg.ArmFromSpec("site=eio@notanumber").ok());
  EXPECT_TRUE(reg.ArmedSites().empty());
}

TEST_F(FailPointTest, KindNamesRoundTrip) {
  for (FailPointKind kind :
       {FailPointKind::kEio, FailPointKind::kEnospc, FailPointKind::kShortWrite,
        FailPointKind::kTornRename, FailPointKind::kFsyncFail}) {
    FailPointKind parsed = FailPointKind::kOff;
    ASSERT_TRUE(ParseFailPointKind(FailPointKindName(kind), parsed))
        << FailPointKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST_F(FailPointTest, InjectMapsKindsToIoError) {
  auto& reg = FailPointRegistry::Global();
  reg.Arm("a", {FailPointKind::kEio, 0, 0});
  reg.Arm("b", {FailPointKind::kEnospc, 0, 0});
  EXPECT_TRUE(failpoints::Inject("a").IsIOError());
  EXPECT_TRUE(failpoints::Inject("b").IsIOError());
}

class FailPointIoTest : public FailPointTest {
 protected:
  void SetUp() override {
    FailPointTest::SetUp();
    if (IsSkipped()) return;
    dir_ = fs::temp_directory_path() /
           ("commsig_fp_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    FailPointTest::TearDown();
  }

  std::string ReadFile(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  fs::path dir_;
};

TEST_F(FailPointIoTest, HelpersPerformRealIoWhenUnarmed) {
  const fs::path path = dir_ / "out.bin";
  auto fd = failpoints::OpenForWrite("w/open", path.string());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string payload = "durable payload";
  ASSERT_TRUE(
      failpoints::WriteAll("w/write", *fd, payload.data(), payload.size())
          .ok());
  ASSERT_TRUE(failpoints::FsyncFd("w/fsync", *fd).ok());
  ::close(*fd);
  const fs::path final_path = dir_ / "final.bin";
  ASSERT_TRUE(failpoints::RenameFile("w/rename", path.string(),
                                     final_path.string())
                  .ok());
  ASSERT_TRUE(failpoints::FsyncDir("w/dirsync", dir_.string()).ok());
  EXPECT_EQ(ReadFile(final_path), payload);
}

TEST_F(FailPointIoTest, ShortWritePersistsOnlyAPrefix) {
  FailPointRegistry::Global().Arm("w/write",
                                  {FailPointKind::kShortWrite, 0, 1});
  const fs::path path = dir_ / "torn.bin";
  auto fd = failpoints::OpenForWrite("w/open", path.string());
  ASSERT_TRUE(fd.ok());
  const std::string payload(64, 'z');
  Status s = failpoints::WriteAll("w/write", *fd, payload.data(),
                                  payload.size());
  ::close(*fd);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_LT(fs::file_size(path), payload.size());
}

TEST_F(FailPointIoTest, TornRenameLandsTruncatedFileUnderLiveName) {
  const fs::path tmp = dir_ / "t.tmp";
  const std::string payload(100, 'q');
  std::ofstream(tmp, std::ios::binary) << payload;
  FailPointRegistry::Global().Arm("w/rename",
                                  {FailPointKind::kTornRename, 0, 1});
  const fs::path live = dir_ / "live.bin";
  // The torn rename *reports success* — the tear is only discoverable by
  // the reader's integrity check, exactly like a real post-crash torn file.
  ASSERT_TRUE(
      failpoints::RenameFile("w/rename", tmp.string(), live.string()).ok());
  ASSERT_TRUE(fs::exists(live));
  EXPECT_LT(fs::file_size(live), payload.size());
  EXPECT_FALSE(fs::exists(tmp));
}

TEST_F(FailPointIoTest, ArmedOpenFailsWithoutCreatingFile) {
  FailPointRegistry::Global().Arm("w/open", {FailPointKind::kEnospc, 0, 1});
  const fs::path path = dir_ / "never.bin";
  auto fd = failpoints::OpenForWrite("w/open", path.string());
  EXPECT_TRUE(fd.status().IsIOError());
  EXPECT_FALSE(fs::exists(path));
}

}  // namespace
}  // namespace commsig

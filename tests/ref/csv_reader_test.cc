// The reference readers' plain line/field split must itself be right: it is
// what the ingestion pipeline and the fused row scanner are checked against.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "ref/readers.h"

namespace commsig::ref {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST(SplitCsvLineTest, Basic) {
  auto fields = SplitCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLineTest, EmptyFieldsPreserved) {
  auto fields = SplitCsvLine("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitCsvLineTest, SingleField) {
  auto fields = SplitCsvLine("alone");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(SplitCsvLineTest, CustomDelimiter) {
  auto fields = SplitCsvLine("a|b|c", '|');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b");
}

TEST_F(CsvTest, WriteThenRead) {
  {
    CsvWriter writer(path_.string());
    ASSERT_TRUE(writer.status().ok());
    writer.WriteRow({"x", "1", "2.5"});
    writer.WriteRow({"y", "2", "3.5"});
    ASSERT_TRUE(writer.Close().ok());
  }
  CsvReader reader(path_.string());
  ASSERT_TRUE(reader.status().ok());
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"x", "1", "2.5"}));
  ASSERT_TRUE(reader.Next(fields));
  EXPECT_EQ(fields[0], "y");
  EXPECT_FALSE(reader.Next(fields));
}

TEST_F(CsvTest, SkipsCommentsAndBlankLines) {
  {
    std::ofstream out(path_);
    out << "# header comment\n\nreal,row\n\n# trailing\n";
  }
  CsvReader reader(path_.string());
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(fields));
  EXPECT_EQ(fields[0], "real");
  EXPECT_EQ(reader.line_number(), 1u);
  EXPECT_FALSE(reader.Next(fields));
}

TEST_F(CsvTest, HandlesCrLf) {
  {
    std::ofstream out(path_);
    out << "a,b\r\nc,d\r\n";
  }
  CsvReader reader(path_.string());
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(fields));
  EXPECT_EQ(fields[1], "b");  // no trailing \r
}

TEST(CsvReaderTest, MissingFileReportsIOError) {
  CsvReader reader("/nonexistent/dir/file.csv");
  EXPECT_TRUE(reader.status().IsIOError());
}

}  // namespace
}  // namespace commsig::ref

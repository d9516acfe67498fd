#include "common/csv.h"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace commsig {
namespace {

TEST(CsvWriterTest, UnwritablePathReportsIOError) {
  CsvWriter writer("/nonexistent/dir/file.csv");
  EXPECT_TRUE(writer.status().IsIOError());
}

TEST(ParseDoubleTest, ValidValues) {
  double v = 0.0;
  ASSERT_TRUE(TryParseDouble("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  ASSERT_TRUE(TryParseDouble("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  ASSERT_TRUE(TryParseDouble("0", v));
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(TryParseDouble("", v));
  EXPECT_FALSE(TryParseDouble("abc", v));
  EXPECT_FALSE(TryParseDouble("1.5x", v));
}

TEST(ParseUintTest, ValidValues) {
  uint64_t v = 0;
  ASSERT_TRUE(TryParseUint("0", v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(TryParseUint("123456789012", v));
  EXPECT_EQ(v, 123456789012ull);
}

TEST(ParseUintTest, RejectsGarbage) {
  uint64_t v = 0;
  EXPECT_FALSE(TryParseUint("", v));
  EXPECT_FALSE(TryParseUint("12.5", v));
  EXPECT_FALSE(TryParseUint("x1", v));
}

// The Try* fast paths must be decision- and bit-identical to strtod /
// strtoull across every input class: plain decimals on the fast path, and
// strtod's quirkier accepts (signs, leading whitespace, exponents, hex
// floats) plus its range rejects on the slow path.
TEST(TryParseDoubleTest, MatchesStrtodSemantics) {
  const char* cases[] = {
      "0",      "1",        "2.5",     "3.25",    "123456.789",
      "1.",     ".5",       "007.25",  "1e3",     "-1e3",
      "+1.5",   " 1.5",     "0x1.8p1", "1e400",   "1e-400",
      "inf",    "nan",      "1.5x",    "abc",     ".",
      "..",     "1.2.3",    "-0",      "9007199254740993",
      "0.000000000000000000001",       "123456789012345678901234567890.5",
  };
  for (const char* text : cases) {
    std::string buf(text);
    errno = 0;
    char* end = nullptr;
    double expected = std::strtod(buf.c_str(), &end);
    const bool ok = errno == 0 && end == buf.c_str() + buf.size();
    double got = 0.0;
    EXPECT_EQ(TryParseDouble(text, got), ok) << text;
    if (ok) {
      // Bit-exact, not just approximately equal: parsed weights feed
      // checkpoint fingerprints and golden window hashes.
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(expected))
          << text;
    }
  }
}

TEST(TryParseUintTest, MatchesStrtoullSemantics) {
  const char* cases[] = {
      "0",  "7",   "42",     "123456789012",     "000000000000000000001",
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "-1", "+1",  " 1",     "12.5",             "x1",
      "1x", "0x10",
  };
  for (const char* text : cases) {
    std::string buf(text);
    errno = 0;
    char* end = nullptr;
    unsigned long long expected = std::strtoull(buf.c_str(), &end, 10);
    const bool ok = errno == 0 && end == buf.c_str() + buf.size();
    uint64_t got = 0;
    EXPECT_EQ(TryParseUint(text, got), ok) << text;
    if (ok) {
      EXPECT_EQ(got, static_cast<uint64_t>(expected)) << text;
    }
  }
}

}  // namespace
}  // namespace commsig

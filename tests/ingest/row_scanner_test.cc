#include "ingest/row_scanner.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ref/readers.h"

namespace commsig::ingest {
namespace {

/// One scanned line with its split fields, for comparing the two scanners.
struct ScannedRow {
  std::string line;
  std::vector<std::string> fields;
  size_t total_fields = 0;
  uint64_t line_number = 0;
};

/// The reference scan: the oracle's getline-and-split CsvReader over the
/// same bytes staged in a file. A data line is its fields re-joined on the
/// delimiter.
std::vector<ScannedRow> ScanReference(std::string_view data, char delim,
                                      size_t max_fields) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("commsig_row_scanner_" + std::to_string(::getpid()) + ".csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << data;
  }
  std::vector<ScannedRow> rows;
  ref::CsvReader reader(path.string(), delim);
  std::vector<std::string> fields;
  while (reader.Next(fields)) {
    ScannedRow row;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) row.line += delim;
      row.line += fields[i];
    }
    row.total_fields = fields.size();
    for (size_t i = 0; i < std::min(fields.size(), max_fields); ++i) {
      row.fields.push_back(fields[i]);
    }
    row.line_number = reader.line_number();
    rows.push_back(std::move(row));
  }
  std::filesystem::remove(path);
  return rows;
}

std::vector<ScannedRow> ScanFused(std::string_view data, char delim,
                                  size_t max_fields) {
  std::vector<ScannedRow> rows;
  FusedRowScanner scanner(data, delim);
  std::string_view line;
  std::string_view fields[8];
  size_t total = 0;
  while (scanner.Next(line, fields, max_fields, total)) {
    ScannedRow row;
    row.line = std::string(line);
    row.total_fields = total;
    for (size_t i = 0; i < std::min(total, max_fields); ++i) {
      row.fields.emplace_back(fields[i]);
    }
    row.line_number = scanner.line_number();
    rows.push_back(std::move(row));
  }
  return rows;
}

void ExpectSameScan(std::string_view data, char delim = ',',
                    size_t max_fields = 4) {
  const std::vector<ScannedRow> expected =
      ScanReference(data, delim, max_fields);
  const std::vector<ScannedRow> actual = ScanFused(data, delim, max_fields);
  ASSERT_EQ(expected.size(), actual.size()) << "input: " << data;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].line, actual[i].line) << "row " << i;
    EXPECT_EQ(expected[i].fields, actual[i].fields) << "row " << i;
    EXPECT_EQ(expected[i].total_fields, actual[i].total_fields) << "row " << i;
    EXPECT_EQ(expected[i].line_number, actual[i].line_number) << "row " << i;
  }
}

TEST(FusedRowScannerTest, MatchesLineScannerOnPlainRows) {
  ExpectSameScan("a,b,1,2.5\nc,d,2,3.5\n");
  ExpectSameScan("a,b,1,2.5\nc,d,2,3.5");  // no trailing newline
}

TEST(FusedRowScannerTest, MatchesOnCommentsAndBlankLines) {
  ExpectSameScan("# header\na,b,1,2\n\n\nc,d,2,3\n# tail\n");
  ExpectSameScan("\n\n\n");
  ExpectSameScan("# only a comment");
  ExpectSameScan("");
}

TEST(FusedRowScannerTest, MatchesOnCarriageReturns) {
  ExpectSameScan("a,b,1,2\r\nc,d,2,3\r\n");
  ExpectSameScan("a,b,1,2\r");     // final unterminated line with \r
  ExpectSameScan("\r\n");          // blank after strip
  ExpectSameScan("a\rb,c\n");      // interior \r stays in the field
  ExpectSameScan("a,b,1,2,\r\n");  // \r right after a delimiter
}

TEST(FusedRowScannerTest, MatchesOnFieldCountEdgeCases) {
  ExpectSameScan(",,,\n");             // empty fields
  ExpectSameScan("a\n");               // one field
  ExpectSameScan("a,b,c,d,e,f,g\n");   // total count past max_fields
  ExpectSameScan("a,b\n", ',', 1);     // max_fields smaller than count
  ExpectSameScan("x;y;z\n", ';', 4);   // alternate delimiter
}

TEST(FusedRowScannerTest, DelimiterSuccessorByteIsNotADelimiter) {
  // An inexact word-at-a-time zero-byte detector (the borrow-based
  // (x-1)&~x form) also flags a byte equal to delim^1 when the byte below
  // it is a true match — for ',' that byte is '-', so ",-0.5" would grow a
  // phantom field boundary. Every successor byte value, at every offset
  // within an 8-byte word, must split exactly like the reference.
  std::string data;
  for (int c = 1; c < 256; ++c) {
    const char next = static_cast<char>(c);
    if (next == ',' || next == '\n') continue;
    for (size_t pad = 0; pad < 9; ++pad) {
      data += std::string(pad, 'x');
      data += ',';
      data += next;
      data += ",tail\n";
    }
  }
  ExpectSameScan(data);
  ExpectSameScan("o2,m3,-0.5\n");
}

TEST(FusedRowScannerTest, MatchesAcrossBlockBoundaries) {
  // Rows sized so delimiters and newlines straddle the scanner's 64-byte
  // blocks, including a field that spans several blocks.
  std::string data;
  for (size_t len = 55; len <= 75; ++len) {
    data += std::string(len, 'x');
    data += ",b,1,2\n";
  }
  data += std::string(300, 'y');
  data += ",tail,9,9\n";
  ExpectSameScan(data);
}

TEST(FusedRowScannerTest, MatchesOnRandomishMixedBuffer) {
  // Deterministic mixed stress buffer: comments, blanks, \r\n, short and
  // long rows, overlong field counts.
  std::string data;
  for (int i = 0; i < 500; ++i) {
    switch (i % 7) {
      case 0:
        data += "# comment line ------\n";
        break;
      case 1:
        data += "\n";
        break;
      case 2:
        data += "h";
        data += std::to_string(i);
        data += ",s,1,2\r\n";
        break;
      case 3:
        data.append(1 + i % 90, 'a');
        data += ",b,3,4\n";
        break;
      case 4:
        data += "one,two,three,four,five,six\n";
        break;
      case 5:
        // Adversarial successor bytes for the SWAR byte-mask fallback: '-'
        // is ','+1 and '\x0b' is '\n'+1, the bytes an inexact zero-byte
        // detector falsely flags right after a true match.
        data += "a,-1,-0.5,-\n";
        data += "\x0bvt,x,-9,2\n";
        break;
      default:
        data += "host-";
        data += std::to_string(i * 7);
        data += ",svc,9,0.5\n";
    }
  }
  data += "last,row,1,2";  // unterminated
  ExpectSameScan(data);
}

}  // namespace
}  // namespace commsig::ingest

#ifndef COMMSIG_COMMON_CSV_H_
#define COMMSIG_COMMON_CSV_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace commsig {

/// Minimal line-oriented CSV writer for commsig's interchange formats. No
/// quoting/escaping — the formats are plain delimited numbers and labels
/// without embedded delimiters.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path, char delim = ',');

  const Status& status() const { return status_; }

  /// Writes one row; fields must not contain the delimiter or newlines.
  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes and reports any I/O error.
  Status Close();

 private:
  std::ofstream out_;
  char delim_;
  Status status_;
};

/// Allocation-free whole-field strtod/strtoull parses for the ingest hot
/// loops, scheme specs and CLI flags: empty input, trailing garbage and
/// range errors fail, with no Status built. All-digit forms take an exact
/// integer fast path; anything else (signs, whitespace, exponents, hex
/// floats, out-of-range values) takes the exact strtod/strtoull slow path,
/// so decisions and values are bit-identical to theirs, except that
/// TryParseUint rejects a minus sign, which strtoull wraps ("-1" → 2^64-1).
bool TryParseDouble(std::string_view text, double& out);
bool TryParseUint(std::string_view text, uint64_t& out);

}  // namespace commsig

#endif  // COMMSIG_COMMON_CSV_H_

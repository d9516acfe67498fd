#include "common/csv.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace commsig {

CsvWriter::CsvWriter(const std::string& path, char delim)
    : out_(path), delim_(delim) {
  if (!out_.is_open()) {
    status_ = Status::IOError("cannot open " + path + " for writing");
  }
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << delim_;
    out_ << fields[i];
  }
  out_ << '\n';
}

Status CsvWriter::Close() {
  out_.flush();
  if (!out_.good()) return Status::IOError("write failed");
  out_.close();
  return Status::OK();
}

namespace {

// Powers of ten that are exactly representable as doubles (all of these have
// mantissas within 53 bits). Index = decimal digits after the point.
constexpr double kExactPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                  1e12, 1e13, 1e14, 1e15};

// Exact strtod slow path: errno-or-trailing-garbage rejects, everything
// else accepted. Short inputs use a stack buffer so the hot readers never
// heap-allocate on this path.
bool SlowParseDouble(std::string_view text, double& out) {
  char stack_buf[64];
  std::string heap_buf;
  const char* begin;
  if (text.size() < sizeof(stack_buf)) {
    std::memcpy(stack_buf, text.data(), text.size());
    stack_buf[text.size()] = '\0';
    begin = stack_buf;
  } else {
    heap_buf.assign(text);
    begin = heap_buf.c_str();
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  if (errno != 0 || end != begin + text.size()) return false;
  out = value;
  return true;
}

bool SlowParseUint(std::string_view text, uint64_t& out) {
  if (text.find('-') != std::string_view::npos) return false;
  char stack_buf[64];
  std::string heap_buf;
  const char* begin;
  if (text.size() < sizeof(stack_buf)) {
    std::memcpy(stack_buf, text.data(), text.size());
    stack_buf[text.size()] = '\0';
    begin = stack_buf;
  } else {
    heap_buf.assign(text);
    begin = heap_buf.c_str();
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(begin, &end, 10);
  if (errno != 0 || end != begin + text.size()) return false;
  out = static_cast<uint64_t>(value);
  return true;
}

}  // namespace

bool TryParseDouble(std::string_view text, double& out) {
  if (text.empty()) return false;
  // Fast path: plain `digits[.digits]` with at most 15 significant digits.
  // Mantissa and divisor are then both exact, and one IEEE division rounds
  // correctly once (Clinger's fast-path theorem), so the result is bit
  // identical to strtod's. Signs, exponents, hex floats, whitespace and
  // overlong inputs fall through to the exact slow path.
  uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = 0;
  bool seen_dot = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      if (++digits > 15) return SlowParseDouble(text, out);
      mantissa = mantissa * 10 + static_cast<uint64_t>(c - '0');
      if (seen_dot) ++frac_digits;
    } else if (c == '.' && !seen_dot) {
      seen_dot = true;
    } else {
      return SlowParseDouble(text, out);
    }
  }
  if (digits == 0) return SlowParseDouble(text, out);
  out = static_cast<double>(mantissa) / kExactPow10[frac_digits];
  return true;
}

bool TryParseUint(std::string_view text, uint64_t& out) {
  if (text.empty()) return false;
  // Fast path: up to 18 plain digits cannot overflow uint64_t and match
  // strtoull exactly. Longer or non-digit inputs use the exact slow path.
  if (text.size() <= 18) {
    uint64_t value = 0;
    size_t i = 0;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (c < '0' || c > '9') break;
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    if (i == text.size()) {
      out = value;
      return true;
    }
  }
  return SlowParseUint(text, out);
}

}  // namespace commsig

// Analyzer fixture: what the lexical rules (hygiene, result's
// unchecked-temporary) must flag. Each flagged line names its rule in an
// `expect:` comment, which tests/tools/analyzer_test.py reads back. Parsed
// by that test; never built.

#include <ostream>

#include "common/result.h"

namespace commsig {

class ByteReader {
 public:
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::string> String();
};

struct Registry {};

static Registry* g_registry = new Registry();  // expect: naked-new

Registry* MakeRegistry() {
  return new Registry();  // expect: naked-new
}

void Print(std::ostream& out, int v) {
  out << v << std::endl;  // expect: endl
}

uint64_t Decode(ByteReader& in) {
  uint32_t count = in.U32().value();  // expect: unchecked-temporary
  uint32_t width = *in.U32();  // expect: unchecked-temporary
  uint64_t seed = in.U64().value();  // expect: unchecked-temporary
  size_t name = in.String()->size();  // expect: unchecked-temporary
  return count + width + seed + name;
}

}  // namespace commsig

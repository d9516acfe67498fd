// Analyzer fixture: look-alikes of what the lexical rules flag. Each shape
// here must produce zero findings. Parsed by tests/tools/analyzer_test.py;
// never built.

#include <memory>
#include <new>
#include <ostream>

#include "common/result.h"

namespace commsig {

class ByteReader {
 public:
  Result<uint32_t> U32();
};

struct Arena {
  // Declaring the allocation functions allocates nothing.
  static void* operator new(size_t size);
  static void operator delete(void* p);
};

// A string literal or a comment may say new and std::endl.
const char* kWord = "new std::endl";

std::unique_ptr<Arena> MakeArena() { return std::make_unique<Arena>(); }

uint32_t Decode(ByteReader& in, uint32_t scale, std::ostream& out) {
  // Bound, then checked, then dereferenced.
  Result<uint32_t> count = in.U32();
  if (!count.ok()) return 0;
  out << *count << '\n';
  // ok() on a temporary checks it; `scale *` is a multiplication.
  return scale * in.U32().ok() + count.value();
}

}  // namespace commsig

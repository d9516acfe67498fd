// libFuzzer harness for the NetFlow v5 reader: the production pipeline at 2
// parse workers with 64-byte chunks (the framer's floor), so even small
// inputs span several chunks. The reader is file-based, so each input is
// staged through a per-process temp file; the property under test is "no
// crash / no sanitizer report under any ErrorPolicy" and every accepted
// weight inside the record bound, not any particular parse result.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/interner.h"
#include "graph/graph_builder.h"
#include "ingest/pipeline.h"
#include "robust/record_errors.h"

namespace {

std::string StageInput(const uint8_t* data, size_t size) {
  static std::string path = "/tmp/commsig_fuzz_netflow_" +
                            std::to_string(::getpid()) + ".bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {};
  if (size > 0) std::fwrite(data, 1, size, f);
  std::fclose(f);
  return path;
}

// Every accepted record weighs in (0, kMaxRecordWeight], so no window built
// from a read can sum an edge weight or node tally to infinity.
void CheckWeights(
    const commsig::Result<std::vector<commsig::TraceEvent>>& events) {
  if (!events.ok()) return;
  for (const commsig::TraceEvent& e : *events) {
    if (!(e.weight > 0.0 && e.weight <= commsig::kMaxRecordWeight)) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = StageInput(data, size);
  if (path.empty()) return 0;

  for (commsig::ErrorPolicy policy :
       {commsig::ErrorPolicy::kFail, commsig::ErrorPolicy::kSkip}) {
    commsig::RecordErrorLog log;
    commsig::ingest::PipelineOptions options;
    options.parse_workers = 2;
    options.chunk_bytes = 64;
    options.ingest.policy = policy;
    options.ingest.error_log = &log;
    commsig::Interner interner;
    CheckWeights(commsig::ingest::ReadTraceEventsPipelined(
        path, commsig::ingest::PipelineFormat::kNetflowV5, interner, options));
  }
  return 0;
}

// libFuzzer harness for the NetFlow v5 reader: the production pipeline at 2
// parse workers with 64-byte chunks (the framer's floor), so even small
// inputs span several chunks. The reader is file-based, so each input is
// staged through a per-process temp file; the property under test is "no
// crash / no sanitizer report under any ErrorPolicy, with or without
// monotonic-time enforcement", not any particular parse result.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/interner.h"
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

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = StageInput(data, size);
  if (path.empty()) return 0;

  for (commsig::ErrorPolicy policy :
       {commsig::ErrorPolicy::kFail, commsig::ErrorPolicy::kSkip,
        commsig::ErrorPolicy::kQuarantine}) {
    for (bool monotonic : {false, true}) {
      commsig::RecordErrorLog log;
      commsig::ingest::PipelineOptions options;
      options.parse_workers = 2;
      options.chunk_bytes = 64;
      options.ingest.policy = policy;
      options.ingest.error_log = &log;
      options.ingest.require_monotonic_time = monotonic;
      commsig::Interner interner;
      (void)commsig::ingest::ReadTraceEventsPipelined(
          path, commsig::ingest::PipelineFormat::kNetflowV5, interner, options);
    }
  }
  return 0;
}

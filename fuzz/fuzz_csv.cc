// libFuzzer harness for the CSV ingestion paths: the trace reader (with and
// without monotonic-time enforcement), the signature-set reader and the
// edge-list reader, under every ErrorPolicy. Each read runs the production
// pipeline at 2 parse workers with 64-byte chunks (the framer's floor), so
// even small inputs span several chunks and exercise the in-order merge.
// Inputs are staged through a per-process temp file because the readers are
// file-based.

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
  static std::string path =
      "/tmp/commsig_fuzz_csv_" + std::to_string(::getpid()) + ".csv";
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
    commsig::RecordErrorLog log;
    commsig::ingest::PipelineOptions options;
    options.parse_workers = 2;
    options.chunk_bytes = 64;
    options.ingest.policy = policy;
    options.ingest.error_log = &log;
    {
      commsig::Interner interner;
      (void)commsig::ingest::ReadTraceEventsPipelined(
          path, commsig::ingest::PipelineFormat::kTraceCsv, interner, options);
      options.ingest.require_monotonic_time = true;
      (void)commsig::ingest::ReadTraceEventsPipelined(
          path, commsig::ingest::PipelineFormat::kTraceCsv, interner, options);
      options.ingest.require_monotonic_time = false;
    }
    {
      commsig::Interner interner;
      (void)commsig::ingest::ReadSignatureSetPipelined(path, interner, options);
    }
    {
      commsig::Interner interner;
      (void)commsig::ingest::ReadEdgeListPipelined(
          path, interner, /*bipartite_left_size=*/0, options);
    }
  }
  return 0;
}

#ifndef COMMSIG_E2EBENCH_WORKLOADS_H_
#define COMMSIG_E2EBENCH_WORKLOADS_H_

// The end-to-end benchmark's workloads: what each one generates, how it is
// exported to raw bytes, and how the pipeline is configured to read it.
// Why each workload exists is recorded in BENCHMARK.json at the root, its
// generator configuration in e2ebench/spec.json.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ingest/pipeline.h"

namespace commsig::e2e {

/// `kFull` is the measured scale; `kSmoke` is a seconds-long scale of the
/// same shapes for the benchmark's own tests.
enum class Scale { kFull, kSmoke };

struct WorkloadSpec {
  std::string name;
  ingest::PipelineFormat format = ingest::PipelineFormat::kTraceCsv;
  uint64_t window_length = 1;
  /// Window step; equal to window_length for tumbling windows.
  uint64_t stride = 1;
  /// Windows the run advances through: those the generated trace covers
  /// completely. SplitSliding also builds the trailing partial windows
  /// (they cost window build and memory), but a monitor never emits them.
  size_t windows = 0;
  size_t k = 10;
  /// Scheme specs for CreateScheme and the short keys used in metric names
  /// (index-aligned).
  std::vector<std::string> scheme_specs;
  std::vector<std::string> scheme_keys;
};

/// Returns false for an unknown workload name.
bool FindWorkload(std::string_view name, Scale scale, WorkloadSpec& spec);

/// Every scheme key any workload can run, in metric-name order.
const std::vector<std::string>& AllSchemeKeys();

/// The generator's side of one workload: the records exactly as exported,
/// aggregated per (src, dst, bucket) with bucket = time / stride. The ingest
/// and window checks compare the library's output against this.
struct Reference {
  /// Generator node id -> the label the exported bytes carry for it.
  std::vector<std::string> labels;
  std::unordered_map<std::string, uint32_t> id_of_label;
  /// PackKey(src, dst, bucket) -> summed weight.
  std::unordered_map<uint64_t, double> weights;
  uint64_t bucket_length = 1;
  /// Records in the exported bytes (CSV rows or NetFlow flow records).
  uint64_t records = 0;
};

uint64_t PackKey(uint32_t src, uint32_t dst, uint64_t bucket);

/// Generates the workload for `seed` and renders its raw input bytes into
/// `bytes` (skipped when null). Deterministic in (spec, seed).
Reference Generate(const WorkloadSpec& spec, Scale scale, uint64_t seed,
                   std::string* bytes);

}  // namespace commsig::e2e

#endif  // COMMSIG_E2EBENCH_WORKLOADS_H_

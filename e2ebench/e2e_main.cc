// End-to-end benchmark of commsig: raw trace bytes -> pipelined ingest ->
// windows -> one incremental signature engine per scheme -> persistence and
// uniqueness -> multiusage and masquerade apps, one window at a time, the
// way `commsig timeline --parse-workers N` drives the library and then on
// to the paper's Section IV properties and Section V applications. Every
// step uses Dist_SHel (the CLI default); the focal set is every node with
// out-traffic, as the CLI picks it.
//
// Modes (e2ebench/run.py builds this binary and drives both):
//
//   commsig_e2e gen --workload W --seed N --scale full|smoke --out PATH
//     Generates the workload's input kSetupRepeats times, each time writing
//     it to PATH and reading it back once (the untimed warm-up read), and
//     prints {"setup_s": <median seconds>, "records": ..., "bytes": ...},
//     at the reference host speed like every time this benchmark reports.
//
//   commsig_e2e run --workload W --seed N --scale full|smoke --input PATH
//                   --seconds S --trace 0|1 --parse-workers P
//                   [--trace-out PATH]
//     Runs whole passes over PATH until S seconds have elapsed, then one
//     untimed check pass, and prints a report followed by one JSON line
//     {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
//     passes run with no per-call timers and the trace collector off, and
//     the metrics are the end-to-end ones, scaled to a reference host speed
//     by a calibration loop timed between passes (see
//     kReferenceCalibrationMs). With --trace 1, untraced and
//     traced passes alternate: the traced ones time each public call with
//     obs spans (exported once as Chrome trace JSON) and give the per-layer
//     metrics; the untraced ones give the tracing overhead. Every run
//     prints error_rate in its report; only the traced run's result line
//     carries it as a metric (see e2ebench/spec.json, "zero_values").

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/masquerade_detector.h"
#include "apps/multiusage.h"
#include "calibration.h"
#include "checks.h"
#include "common/simd.h"
#include "core/distance.h"
#include "core/incremental.h"
#include "core/scheme.h"
#include "eval/properties.h"
#include "graph/windower.h"
#include "ingest/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window_stats.h"
#include "workloads.h"

namespace commsig::e2e {
namespace {

/// Uniqueness is estimated on a seeded pair sample, as the fig1 bench does.
constexpr size_t kUniquenessPairs = 20000;

/// setup_s is the median of this many set-ups.
constexpr int kSetupRepeats = 5;

struct Args {
  std::string mode;
  std::string workload;
  std::string input;
  std::string out;
  std::string trace_out;
  Scale scale = Scale::kFull;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int parse_workers = 1;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "commsig_e2e: %s\n"
               "usage: commsig_e2e gen --workload W --seed N --scale "
               "full|smoke --out PATH\n"
               "       commsig_e2e run --workload W --seed N --scale "
               "full|smoke --input PATH --seconds S --trace 0|1 "
               "--parse-workers P [--trace-out PATH]\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
T ParseNumber(const std::string& flag, const std::string& text) {
  T value{};
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    Usage("invalid value for " + flag + ": " + text);
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Usage("missing mode");
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--input") {
      args.input = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") Usage("bad --scale " + value);
      args.scale = value == "full" ? Scale::kFull : Scale::kSmoke;
    } else if (flag == "--seed") {
      args.seed = ParseNumber<uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber<double>(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--parse-workers") {
      args.parse_workers = std::max(1, ParseNumber<int>(flag, value));
    } else {
      Usage("unknown flag " + flag);
    }
  }
  return args;
}

/// Microseconds on the trace collector's steady clock, so the benchmark's
/// own timings and its spans share one time base.
uint64_t NowUs() { return obs::TraceCollector::Global().NowMicros(); }

uint64_t ProcessCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// This benchmark runs on shared machines whose speed drifts by 15-20 % in
/// spells of 10-30 s as other tenants come and go, moving every wall time
/// of a pass by the same factor. CalibrationMs(), timed before each pass
/// and after the last, measures that factor: the end-to-end times are
/// reported as if it had taken kReferenceCalibrationMs (its quiet-state
/// time on the host in spec.json). This holds only while the loop's code
/// and flags stay as they are. The report prints the raw medians as well.
constexpr double kReferenceCalibrationMs = 40.0;

/// A span around one public call, recorded only in the traced passes: the
/// untraced passes that give the end-to-end numbers carry no per-call
/// timer at all.
class MaybeSpan {
 public:
  MaybeSpan(bool on, const char* name) {
    if (on) span_.emplace(name);
  }

 private:
  std::optional<obs::ScopedSpan> span_;
};

// Span names (string literals, as ScopedSpan requires). The pipeline/*
// names are the /pipelinez stage names; per-layer metrics are these names
// with '/' replaced by '.' and a _us suffix.
constexpr const char* kParseSpan = "pipeline/parse";
constexpr const char* kWindowBuildSpan = "pipeline/window_build";
constexpr const char* kExtractSpan = "pipeline/extract";
constexpr const char* kMultiusageSpan = "apps/multiusage";
constexpr const char* kMasqueradeSpan = "apps/masquerade";
constexpr const char* kWindowSpan = "e2e/window";

const char* AdvanceSpan(const std::string& key) {
  if (key == "tt") return "core/tt/advance";
  if (key == "ut") return "core/ut/advance";
  if (key == "rwr_h3") return "core/rwr_h3/advance";
  return "core/rwr/advance";
}

/// Nodes with out-traffic in any window, ascending (the CLI's focal set).
std::vector<NodeId> FocalNodes(const std::vector<CommGraph>& windows,
                               size_t num_nodes) {
  std::vector<bool> has_out(num_nodes, false);
  for (const CommGraph& g : windows) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.OutDegree(v) > 0) has_out[v] = true;
    }
  }
  std::vector<NodeId> focal;
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (has_out[v]) focal.push_back(v);
  }
  return focal;
}

struct PassResult {
  std::string error;  // empty on success
  uint64_t records_read = 0;
  uint64_t rejected = 0;
  uint64_t wall_us = 0;
  uint64_t first_graph_us = 0;
  uint64_t first_window_us = 0;
  uint64_t parse_cpu_us = 0;
  std::vector<double> window_us;  // windows 1..n
  ingest::PipelineStats ingest;
  size_t windows_built = 0;
  size_t windows_run = 0;
  uint64_t edges_built = 0;
  // Filled only when reuse is counted (traced and check passes); per
  // scheme, priming window excluded.
  std::vector<uint64_t> dirty;
  std::vector<uint64_t> reused;
  uint64_t distance_pairs = 0;
  uint64_t multiusage_pairs = 0;
  uint64_t masquerade_pairs = 0;
  std::vector<double> persistence_sum;
  std::vector<uint64_t> persistence_n;
  std::vector<double> uniqueness_sum;
  std::vector<uint64_t> uniqueness_n;
};

struct RunContext {
  WorkloadSpec spec;
  std::string input;
  int parse_workers = 1;
  uint64_t seed = 1;
};

/// One pass: open the input, ingest, split, then advance every window
/// through signatures, properties and apps. `checks` is set only on the
/// untimed check pass.
PassResult RunPass(const RunContext& ctx, bool traced,
                   CheckObserver* checks) {
  const WorkloadSpec& spec = ctx.spec;
  const size_t num_schemes = spec.scheme_specs.size();
  const bool count_reuse = traced || checks != nullptr;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& rejected_counter =
      registry.GetCounter("robust/records_rejected");
  obs::Counter& dirty_counter = registry.GetCounter("timeline/nodes_dirty");
  obs::Counter& reused_counter = registry.GetCounter("timeline/nodes_reused");

  PassResult r;
  r.dirty.assign(num_schemes, 0);
  r.reused.assign(num_schemes, 0);
  r.persistence_sum.assign(num_schemes, 0.0);
  r.persistence_n.assign(num_schemes, 0);
  r.uniqueness_sum.assign(num_schemes, 0.0);
  r.uniqueness_n.assign(num_schemes, 0);

  const uint64_t start_us = NowUs();
  Interner interner;
  std::vector<TraceEvent> events;
  {
    MaybeSpan span(traced, kParseSpan);
    ingest::PipelineOptions options;
    options.parse_workers = ctx.parse_workers;
    options.ingest.policy = ErrorPolicy::kSkip;
    options.netflow.weighting = NetflowWeighting::kFlows;
    options.netflow.protocol_filter = 6;  // TCP, as the paper
    const uint64_t rejected_before = rejected_counter.Value();
    const uint64_t cpu_before = ProcessCpuUs();
    auto loaded = ingest::ReadTraceEventsPipelined(
        ctx.input, spec.format, interner, options, &r.ingest);
    r.parse_cpu_us = ProcessCpuUs() - cpu_before;
    if (!loaded.ok()) {
      r.error = loaded.status().ToString();
      return r;
    }
    events = std::move(*loaded);
    r.rejected = rejected_counter.Value() - rejected_before;
    r.records_read = r.ingest.records_parsed + r.rejected;
  }
  if (checks != nullptr) checks->OnIngested(events, interner);

  std::vector<CommGraph> windows;
  std::vector<NodeId> focal;
  {
    MaybeSpan span(traced, kWindowBuildSpan);
    TraceWindower windower(interner.size(), spec.window_length);
    windows = spec.stride == spec.window_length
                  ? windower.Split(events)
                  : windower.SplitSliding(events, spec.stride);
    focal = FocalNodes(windows, interner.size());
  }
  r.first_graph_us = NowUs() - start_us;
  r.windows_built = windows.size();
  for (const CommGraph& g : windows) r.edges_built += g.NumEdges();
  r.windows_run = std::min(windows.size(), spec.windows);

  std::vector<std::unique_ptr<SignatureScheme>> schemes;
  std::vector<const SignatureScheme*> scheme_ptrs;
  std::vector<std::unique_ptr<IncrementalSignatureEngine>> engines;
  for (const std::string& scheme_spec : spec.scheme_specs) {
    auto scheme = CreateScheme(scheme_spec, SchemeOptions{.k = spec.k});
    if (!scheme.ok()) {
      r.error = scheme.status().ToString();
      return r;
    }
    schemes.push_back(std::move(*scheme));
    scheme_ptrs.push_back(schemes.back().get());
    engines.push_back(
        std::make_unique<IncrementalSignatureEngine>(*schemes.back(), focal));
  }
  if (checks != nullptr) {
    checks->OnWindows(windows, r.windows_run, interner, focal, scheme_ptrs);
  }

  const SignatureDistance dist(DistanceKind::kScaledHellinger);
  const MultiusageDetector multiusage = MakeMultiusageDetector(dist);
  const MasqueradeDetector masquerade = MakeMasqueradeDetector(dist);
  std::vector<std::vector<Signature>> previous(num_schemes);
  WindowOutputs out;
  out.signatures.assign(num_schemes, nullptr);
  out.multiusage.resize(num_schemes);
  for (size_t w = 0; w < r.windows_run; ++w) {
    const uint64_t window_start_us = NowUs();
    {
      MaybeSpan window_span(traced, kWindowSpan);
      for (size_t s = 0; s < num_schemes; ++s) {
        const uint64_t dirty_before = count_reuse ? dirty_counter.Value() : 0;
        const uint64_t reused_before =
            count_reuse ? reused_counter.Value() : 0;
        {
          MaybeSpan span(traced, AdvanceSpan(spec.scheme_keys[s]));
          out.signatures[s] = &engines[s]->AdvanceBorrowed(windows[w]);
        }
        if (count_reuse && w > 0) {
          r.dirty[s] += dirty_counter.Value() - dirty_before;
          r.reused[s] += reused_counter.Value() - reused_before;
        }
      }
      {
        MaybeSpan span(traced, kExtractSpan);
        for (size_t s = 0; s < num_schemes; ++s) {
          const std::vector<Signature>& sigs = *out.signatures[s];
          if (w > 0) {
            for (double p : PersistenceValues(previous[s], sigs, dist)) {
              r.persistence_sum[s] += p;
              ++r.persistence_n[s];
            }
          }
          for (double u :
               UniquenessValues(sigs, dist, kUniquenessPairs, ctx.seed)) {
            r.uniqueness_sum[s] += u;
            ++r.uniqueness_n[s];
          }
        }
      }
      {
        MaybeSpan span(traced, kMultiusageSpan);
        for (size_t s = 0; s < num_schemes; ++s) {
          out.multiusage[s] = multiusage.Detect(focal, *out.signatures[s]);
          r.multiusage_pairs += out.multiusage[s].size();
        }
      }
      {
        MaybeSpan span(traced, kMasqueradeSpan);
        out.masquerade.clear();
        if (w > 0) {
          for (size_t s = 0; s < num_schemes; ++s) {
            out.masquerade.push_back(
                masquerade.Detect(focal, previous[s], *out.signatures[s]));
            r.masquerade_pairs += out.masquerade.back().detected.size();
          }
        }
      }
      for (size_t s = 0; s < num_schemes; ++s) {
        previous[s] = *out.signatures[s];
      }
    }
    const uint64_t now_us = NowUs();
    if (w == 0) {
      r.first_window_us = now_us - start_us;
    } else {
      r.window_us.push_back(static_cast<double>(now_us - window_start_us));
    }
    if (checks != nullptr) checks->OnWindow(windows[w], out);
  }
  r.wall_us = NowUs() - start_us;
  for (size_t s = 0; s < num_schemes; ++s) {
    r.distance_pairs += r.persistence_n[s] + r.uniqueness_n[s];
  }
  return r;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, end);
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string Summary(const std::vector<double>& v) {
  if (v.empty()) return "n=0";
  double sum = 0.0;
  for (double x : v) sum += x;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "mean %.1f min %.0f max %.0f (n=%zu)",
                sum / static_cast<double>(v.size()),
                *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()), v.size());
  return buf;
}

/// Accumulates the per-layer numbers of the traced passes.
struct LayerTotals {
  size_t passes = 0;
  double wall_us = 0.0;
  std::map<std::string, double> span_us;
  std::map<std::string, double> counters;
  std::vector<uint64_t> dirty, reused;
  double parse_cpu_us = 0.0;
  double first_graph_us = 0.0;
  double windows_built = 0.0;
  double edges_built = 0.0;
  double distance_pairs = 0.0;
  double multiusage_pairs = 0.0;
  double masquerade_pairs = 0.0;

  void Add(const PassResult& r) {
    const std::vector<obs::SpanEvent> events =
        obs::TraceCollector::Global().Events();
    for (const obs::SpanEvent& e : events) span_us[e.name] += e.dur_us;
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    for (const auto& [name, value] : snap.counters) counters[name] += value;
    for (const auto& [name, h] : snap.histograms) {
      // The engine's per-window stage records land in these histograms.
      if (name == "pipeline/delta_diff_us" ||
          name == "pipeline/dirty_recompute_us") {
        counters[name] += h.mean * static_cast<double>(h.count);
      }
    }
    if (dirty.empty()) {
      dirty.assign(r.dirty.size(), 0);
      reused.assign(r.reused.size(), 0);
    }
    for (size_t s = 0; s < r.dirty.size(); ++s) {
      dirty[s] += r.dirty[s];
      reused[s] += r.reused[s];
    }
    ++passes;
    wall_us += static_cast<double>(r.wall_us);
    parse_cpu_us += static_cast<double>(r.parse_cpu_us);
    first_graph_us += static_cast<double>(r.first_graph_us);
    windows_built += static_cast<double>(r.windows_built);
    edges_built += static_cast<double>(r.edges_built);
    distance_pairs += static_cast<double>(r.distance_pairs);
    multiusage_pairs += static_cast<double>(r.multiusage_pairs);
    masquerade_pairs += static_cast<double>(r.masquerade_pairs);
  }
};

/// Per-layer metrics: per-pass means over the traced passes. Every _us
/// metric gets a _share of the traced pass's wall time.
std::vector<Metric> LayerMetrics(const LayerTotals& t, const WorkloadSpec& spec,
                                 double untraced_wall_us, double overhead_us) {
  const double n = static_cast<double>(std::max<size_t>(t.passes, 1));
  const double wall = t.wall_us / n;
  std::vector<Metric> m;
  auto per_pass = [&](const std::map<std::string, double>& table,
                      const std::string& key) {
    auto it = table.find(key);
    return it == table.end() ? 0.0 : it->second / n;
  };
  auto timed = [&](const std::string& name, double us) {
    m.push_back({name + "_us", us, "us"});
    m.push_back({name + "_share", wall > 0 ? us / wall : 0.0, "fraction"});
  };
  auto count = [&](const std::string& name, double value) {
    m.push_back({name, value, "count"});
  };
  auto counter = [&](const std::string& registry_name) {
    std::string name = registry_name;
    std::replace(name.begin(), name.end(), '/', '.');
    count(name, per_pass(t.counters, registry_name));
  };

  // ingest
  timed("pipeline.parse", per_pass(t.span_us, kParseSpan));
  timed("ingest.cpu", t.parse_cpu_us / n);
  counter("ingest/records_parsed");
  counter("robust/records_rejected");
  counter("ingest/chunks_framed");
  counter("ingest/producer_stalls");
  counter("ingest/consumer_stalls");
  // graph
  timed("pipeline.window_build", per_pass(t.span_us, kWindowBuildSpan));
  timed("pipeline.first_window_wait", t.first_graph_us / n);
  count("graph.windows", t.windows_built / n);
  count("graph.edges", t.edges_built / n);
  // core: incremental engine
  timed("pipeline.delta_diff", per_pass(t.counters, "pipeline/delta_diff_us"));
  timed("pipeline.dirty_recompute",
        per_pass(t.counters, "pipeline/dirty_recompute_us"));
  counter("timeline/nodes_dirty");
  counter("timeline/nodes_reused");
  for (const std::string& key : AllSchemeKeys()) {
    double frac = 0.0;
    for (size_t s = 0; s < spec.scheme_keys.size(); ++s) {
      if (spec.scheme_keys[s] != key || s >= t.dirty.size()) continue;
      const double total = static_cast<double>(t.dirty[s] + t.reused[s]);
      frac = total > 0 ? static_cast<double>(t.dirty[s]) / total : 0.0;
    }
    m.push_back({"core." + key + ".dirty_frac", frac, "fraction"});
  }
  // core: schemes
  for (const std::string& key : AllSchemeKeys()) {
    timed("core." + key + ".advance", per_pass(t.span_us, AdvanceSpan(key)));
  }
  counter("rwr/iterations");
  counter("rwr/batch_solves");
  counter("robust/rwr_fallbacks");
  counter("timeline/rwr_warm_start_fallbacks");
  // eval
  const double extract_us = per_pass(t.span_us, kExtractSpan);
  timed("pipeline.extract", extract_us);
  count("eval.distance_pairs", t.distance_pairs / n);
  m.push_back({"eval.ns_per_pair",
               t.distance_pairs > 0 ? extract_us * 1000.0 / (t.distance_pairs / n)
                                    : 0.0,
               "ns"});
  // apps
  timed("apps.multiusage", per_pass(t.span_us, kMultiusageSpan));
  timed("apps.masquerade", per_pass(t.span_us, kMasqueradeSpan));
  count("apps.multiusage_pairs", t.multiusage_pairs / n);
  count("apps.masquerade_pairs", t.masquerade_pairs / n);
  // the run itself
  m.push_back({"e2e.traced_wall_us", wall, "us"});
  m.push_back({"e2e.untraced_wall_us", untraced_wall_us, "us"});
  m.push_back({"e2e.trace_overhead_us", overhead_us, "us"});
  m.push_back({"e2e.trace_overhead_share",
               untraced_wall_us > 0 ? overhead_us / untraced_wall_us : 0.0,
               "fraction"});
  return m;
}

int RunGen(const Args& args, const WorkloadSpec& spec) {
  if (args.out.empty()) Usage("gen needs --out");
  std::vector<double> seconds;
  std::vector<double> calibration_ms = {CalibrationMs()};
  uint64_t records = 0;
  size_t bytes_written = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const uint64_t start_us = NowUs();
    std::string bytes;
    records = Generate(spec, args.scale, args.seed, &bytes).records;
    std::FILE* f = std::fopen(args.out.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "commsig_e2e: cannot write %s\n", args.out.c_str());
      return 1;
    }
    bytes_written = bytes.size();
    // Warm-up read: the timed passes then start from a warm page cache.
    std::FILE* in = std::fopen(args.out.c_str(), "rb");
    if (in == nullptr) {
      std::fprintf(stderr, "commsig_e2e: cannot read %s\n", args.out.c_str());
      return 1;
    }
    std::string back(bytes.size(), '\0');
    const size_t got = std::fread(back.data(), 1, back.size(), in);
    std::fclose(in);
    if (got != bytes.size()) {
      std::fprintf(stderr, "commsig_e2e: short read of %s\n",
                   args.out.c_str());
      return 1;
    }
    const double elapsed_s = static_cast<double>(NowUs() - start_us) / 1e6;
    calibration_ms.push_back(CalibrationMs());
    const double slowdown = (calibration_ms[i] + calibration_ms[i + 1]) /
                            (2.0 * kReferenceCalibrationMs);
    seconds.push_back(elapsed_s / slowdown);
  }
  std::printf("{\"setup_s\": %s, \"records\": %llu, \"bytes\": %zu}\n",
              FormatNumber(Quantile(seconds, 0.5)).c_str(),
              static_cast<unsigned long long>(records), bytes_written);
  return 0;
}

int RunBench(const Args& args, const WorkloadSpec& spec) {
  if (args.input.empty()) Usage("run needs --input");
  RunContext ctx{spec, args.input, args.parse_workers, args.seed};
  const double budget_us = args.seconds * 1e6;
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.SetEnabled(false);

  std::vector<PassResult> timed;  // untraced passes
  // Before each untraced pass and after the last (end-to-end runs only).
  std::vector<double> calibration_ms;
  LayerTotals layers;
  // Traced minus untraced wall of back-to-back passes: pairing keeps the
  // host's slow and fast spells out of the overhead estimate.
  std::vector<double> overhead_us;
  bool pass_failed = false;
  std::string pass_error;
  const uint64_t begin_us = NowUs();
  do {
    if (!args.trace) calibration_ms.push_back(CalibrationMs());
    timed.push_back(RunPass(ctx, /*traced=*/false, nullptr));
    if (!timed.back().error.empty()) {
      pass_failed = true;
      pass_error = timed.back().error;
      break;
    }
    if (args.trace) {
      obs::MetricsRegistry::Global().Reset();
      obs::WindowStatsAggregator::Global().Reset();
      collector.Clear();
      collector.SetEnabled(true);
      PassResult traced = RunPass(ctx, /*traced=*/true, nullptr);
      collector.SetEnabled(false);
      if (!traced.error.empty()) {
        pass_failed = true;
        pass_error = traced.error;
        break;
      }
      layers.Add(traced);
      overhead_us.push_back(static_cast<double>(traced.wall_us) -
                            static_cast<double>(timed.back().wall_us));
    }
  } while (static_cast<double>(NowUs() - begin_us) < budget_us);
  if (!args.trace) calibration_ms.push_back(CalibrationMs());
  const double peak_rss_mib = PeakRssMiB();
  if (pass_failed) {
    std::fprintf(stderr, "commsig_e2e: pass failed: %s\n", pass_error.c_str());
    return 1;
  }
  if (args.trace && !args.trace_out.empty()) {
    Status s = collector.WriteChromeTraceFile(args.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "commsig_e2e: cannot write trace: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  // Untimed check pass.
  CheckObserver checks(ctx.spec, args.scale, ctx.seed);
  PassResult check = RunPass(ctx, /*traced=*/false, &checks);
  if (!check.error.empty()) {
    std::fprintf(stderr, "commsig_e2e: check pass failed: %s\n",
                 check.error.c_str());
    return 1;
  }

  // End-to-end times, raw and at the reference host speed.
  struct Series {
    std::vector<double> throughput, first_window_s, window_ms;
  } raw, normalized;
  std::vector<double> untraced_wall;
  for (size_t i = 0; i < timed.size(); ++i) {
    const PassResult& r = timed[i];
    const double slowdown =
        args.trace ? 1.0
                   : (calibration_ms[i] + calibration_ms[i + 1]) /
                         (2.0 * kReferenceCalibrationMs);
    untraced_wall.push_back(static_cast<double>(r.wall_us));
    for (auto [series, scale] : {std::pair{&raw, 1.0},
                                 std::pair{&normalized, 1.0 / slowdown}}) {
      const double wall_s = static_cast<double>(r.wall_us) * scale / 1e6;
      series->throughput.push_back(static_cast<double>(r.records_read) /
                                   wall_s);
      series->first_window_s.push_back(
          static_cast<double>(r.first_window_us) * scale / 1e6);
      for (double us : r.window_us) {
        series->window_ms.push_back(us * scale / 1e3);
      }
    }
  }

  // Workload-property report.
  std::printf("# workload %s seed %llu parse_workers %d simd %s passes %zu%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.parse_workers, simd::IsaName(), timed.size(),
              args.trace ? " (plus as many traced)" : "");
  std::printf("# property records %llu focal_nodes %zu windows_run %zu "
              "windows_built %zu\n",
              static_cast<unsigned long long>(check.records_read),
              checks.focal_nodes(), check.windows_run, check.windows_built);
  std::printf("# property events_per_window %s\n",
              Summary(checks.events_per_window()).c_str());
  std::printf("# property edges_per_window %s\n",
              Summary(checks.edges_per_window()).c_str());
  std::printf("# property windows_per_event %.2f\n",
              checks.windows_per_event());
  const std::vector<double> dup = checks.DuplicateShares();
  for (size_t s = 0; s < spec.scheme_keys.size(); ++s) {
    const double total =
        static_cast<double>(check.dirty[s] + check.reused[s]);
    std::printf("# property scheme %-6s dirty_frac %.3f duplicate_signature_"
                "share %.3f persistence_mean %.4f uniqueness_mean %.4f\n",
                spec.scheme_keys[s].c_str(),
                total > 0 ? static_cast<double>(check.dirty[s]) / total : 0.0,
                s < dup.size() ? dup[s] : 0.0,
                check.persistence_n[s] > 0
                    ? check.persistence_sum[s] /
                          static_cast<double>(check.persistence_n[s])
                    : 0.0,
                check.uniqueness_n[s] > 0
                    ? check.uniqueness_sum[s] /
                          static_cast<double>(check.uniqueness_n[s])
                    : 0.0);
  }
  auto print_tally = [](const char* what, const CheckTally& t) {
    std::printf("# check %-8s run %llu failed %llu\n", what,
                static_cast<unsigned long long>(t.run),
                static_cast<unsigned long long>(t.failed));
    for (const std::string& f : t.first_failures) {
      std::printf("#   failure: %s\n", f.c_str());
    }
  };
  print_tally("ingest", checks.ingest());
  print_tally("windows", checks.windows());
  print_tally("outputs", checks.outputs());

  const uint64_t attempted = check.records_read + checks.checks_run();
  const uint64_t failed = check.rejected + checks.checks_failed();
  const bool correct = failed == 0 && check.records_read > 0;
  std::printf("# error_rate = (rejected %llu + failed checks %llu) / "
              "(records %llu + checks %llu)\n",
              static_cast<unsigned long long>(check.rejected),
              static_cast<unsigned long long>(checks.checks_failed()),
              static_cast<unsigned long long>(check.records_read),
              static_cast<unsigned long long>(checks.checks_run()));
  // A correct run's error_rate is 0, so it is not an end-to-end metric
  // (their bounds are shares of a median); it is a per-layer one, which
  // has no bound, and every report prints it.
  const Metric error_rate{"error_rate",
                          attempted > 0 ? static_cast<double>(failed) /
                                              static_cast<double>(attempted)
                                        : 1.0,
                          "fraction"};
  auto print_metric = [](const Metric& m) {
    std::printf("# metric %-36s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"events_per_sec", Quantile(normalized.throughput, 0.5), "events/s"},
        {"first_window_s", Quantile(normalized.first_window_s, 0.5), "s"},
        {"window_p50_ms", Quantile(normalized.window_ms, 0.5), "ms"},
        {"window_p90_ms", Quantile(normalized.window_ms, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mib, "MiB"},
    };
    std::printf("# samples passes %zu windows %zu; pass wall ms:",
                timed.size(), raw.window_ms.size());
    for (double us : untraced_wall) std::printf(" %.0f", us / 1e3);
    std::printf("\n# host calibration loop median %.2f ms (reference %.0f ms)"
                "; raw, not normalized: events_per_sec %.0f first_window_s "
                "%.4f window_p50_ms %.3f window_p90_ms %.3f\n",
                Quantile(calibration_ms, 0.5), kReferenceCalibrationMs,
                Quantile(raw.throughput, 0.5),
                Quantile(raw.first_window_s, 0.5),
                Quantile(raw.window_ms, 0.5), Quantile(raw.window_ms, 0.9));
    print_metric(error_rate);
  } else {
    metrics = LayerMetrics(layers, spec, Quantile(untraced_wall, 0.5),
                           Quantile(overhead_us, 0.5));
    metrics.push_back(error_rate);
    if (!args.trace_out.empty()) {
      std::printf("# trace written to %s\n", args.trace_out.c_str());
    }
  }
  for (const Metric& m : metrics) print_metric(m);
  PrintResultLine(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace commsig::e2e

int main(int argc, char** argv) {
  using namespace commsig::e2e;
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, args.scale, spec)) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.mode == "gen") return RunGen(args, spec);
  if (args.mode == "run") return RunBench(args, spec);
  Usage("unknown mode " + args.mode);
}

// commsig command-line tool: run the library's signature pipeline on a
// trace CSV (rows `src,dst,time,weight`) without writing any code.
//
// Subcommands:
//   signatures  print per-node signatures for one window
//   selfmatch   cross-window self-match AUC per scheme (paper Fig. 2/3)
//   multiusage  similar-signature pairs within one window (paper Fig. 5)
//   masquerade  Algorithm-1 masquerade detection across two windows
//   anomalies   nodes whose behaviour broke between two windows
//   stream      one-pass streaming TT/UT signatures (Section VI) with
//               optional crash-safe checkpointing
//   faultcheck  inject a fixed fraction of faults into the event stream and
//               report per-scheme signature drift (robustness gate)
//   chaoscheck  run the supervised stream under randomized kill / IO-fault
//               schedules and verify the recovered signatures are
//               bit-identical to a fault-free run (self-healing gate)
//   timeline    per-transition and per-lag persistence over a (possibly
//               sliding) window sequence, computed incrementally with
//               dirty-node tracking or from scratch
//
// Common flags:
//   --trace PATHS       input trace CSV (this or --netflow is required);
//                       comma-separated paths concatenate multiple files
//                       into one stream, sharing --max-total-errors
//   --netflow PATH      input NetFlow v5 binary export (TCP flows only
//                       unless --protocol 0)
//   --parse-workers N   parse worker threads of the staged ingestion
//                       pipeline every input is read through (framer ->
//                       N parse workers -> in-order merge; default 1,
//                       0 means 1); under --backpressure block the
//                       decoded stream is bit-identical at every N
//   --io-chunk-kb N     pipeline framing chunk size in KiB (default 256)
//   --ingest-queue N    bounded queue capacity, in chunks/batches, between
//                       pipeline stages (default 8)
//   --backpressure P    block = stall the IO stage when a queue fills
//                       (lossless, default); shed = drop whole chunks and
//                       report overload to the degradation ladder
//   --window-length N   window length in trace time units, >= 1
//                       (default 86400)
//   --scheme SPEC       tt | ut | ut-tfidf | rwr(c=..,h=..) |
//                       rwr-push(c=..,eps=..) (default tt)
//   --dist NAME         jac | dice | sdice | shel | cos | overlap
//                       (default shel)
//   --k N               signature length, >= 1 (default 10)
//   --window I          window index (default 0)
//   --window2 J         second window for cross-window commands (default 1)
//   --decay THETA       accumulate windows as C'_t = theta*C'_{t-1} + C_t
//                       before computing signatures (default 0 = off)
//   --threads N         worker threads for signature computation (default 1)
//   --metrics-out PATH  write a JSON snapshot of the metrics registry
//                       (counters/gauges/histograms) after the command
//                       (and periodically during `stream`, keyed to the
//                       checkpoint cadence)
//   --trace-out PATH    record scoped spans and write a Chrome trace_event
//                       JSON file (open at chrome://tracing or
//                       https://ui.perfetto.dev); flushed periodically
//                       during `stream` like --metrics-out
//
// Introspection flags (all commands):
//   --stats-port N        serve live introspection over HTTP on
//                         127.0.0.1:N (0 = ephemeral port, logged at
//                         startup): /metrics /varz /healthz /tracez
//                         /pipelinez
//   --stats-stall-ms N    /healthz reports 503 once the last window
//                         advance is older than N ms (default 30000;
//                         0 = liveness only)
//   --stats-linger-ms N   keep the stats server (and process) alive N ms
//                         after the command finishes, so a scrape can
//                         read the final state (default 0)
//   --log-level L         debug | info | warn | error — structured-log
//                         threshold (default info; env COMMSIG_LOG)
//   --log-file PATH       append structured JSON log lines to PATH in
//                         addition to stderr
//   --window-budget-ms N  slow-window watchdog: emit a structured warning
//                         with the stage breakdown when one window advance
//                         exceeds N ms (default 0 = off)
//
// Robust ingestion flags (all commands):
//   --on-error MODE     fail | skip | quarantine — what a reader does with
//                       a malformed record (default fail)
//   --error-budget N    with skip/quarantine, abort anyway after N rejected
//                       records per file (default 100000; 0 = unlimited)
//   --max-total-errors N  run-wide budget shared across every input file:
//                       abort once more than N records were rejected in
//                       total, with a typed `budget_exhausted` log event
//                       (default 0 = off)
//   --quarantine-out P  with quarantine, write rejected records (reason,
//                       position, detail) to this dead-letter CSV
//
// Self-healing runtime flags (stream / chaoscheck; see DESIGN.md §13):
//   --retry-max-attempts N  attempts per retryable IO operation —
//                       checkpoint save, telemetry flush, log-file open,
//                       reader open (default 4)
//   --retry-initial-ms N   backoff before the first retry (default 5)
//   --retry-max-ms N       ceiling on any single backoff (default 200)
//   --retry-multiplier F   backoff growth factor (default 2.0)
//   --retry-jitter F       uniform jitter fraction in [0,1] (default 0.25)
//   --retry-deadline-ms N  total backoff budget per operation (0 = off)
//   --degrade-escalate-after N  consecutive failure/overload signals that
//                       step the degradation ladder one tier up (default 3)
//   --degrade-recover-after N   consecutive healthy epochs that step it
//                       back down (default 8)
//   --degrade-checkpoint-stretch N  checkpoint-cadence multiplier at the
//                       widen_checkpoints tier (default 4)
//   --max-epoch-attempts N  in-place retries per stream epoch before the
//                       from-scratch rebuild and, failing that, poison
//                       quarantine (default 3)
//   --failpoints SPEC   arm deterministic IO fail-points, e.g.
//                       'checkpoint/write=enospc@2;stream/epoch=eio@1x2'
//                       (site=kind[@after][xcount], ';'-separated; needs a
//                       build with COMMSIG_FAILPOINTS, the default)
//
// stream flags:
//   --checkpoint-dir D    durable checkpoint directory (enables restore)
//   --checkpoint-every N  checkpoint every N events (default 10000)
//   --kill-after N        abort (exit 3) after N events this run — crash
//                         test hook for checkpoint/restore round-trips
//   --emit-every N        additionally extract all focal signatures every N
//                         events (periodic re-emission; cached extractions
//                         make quiet nodes nearly free)
//   --replay-delay-us N   sleep N microseconds after each event — replays
//                         the trace as a live stream so the introspection
//                         plane can be watched while windows advance
//   --replay-rate X       timestamp-paced replay: trace time advances X
//                         times faster than wall-clock (1.0 = real time),
//                         scheduled against the stream's first timestamp
//                         so pacing never drifts (0 = off)
//   --dead-letter-out P   write poison-epoch dead-letter records (reason,
//                         position, detail) to this CSV
//
// chaoscheck flags (plus the stream + self-healing flags above):
//   --trials N          randomized kill/fault schedules to run (default 3)
//   --seed S            schedule RNG seed (default 1); the same seed
//                       replays the same schedule
//   --chaos-dir D       scratch checkpoint directory (default: a fresh
//                       directory under the system temp dir, removed on
//                       success)
//
// timeline flags:
//   --stride N          window start spacing in trace time units (default =
//                       --window-length, i.e. tumbling; smaller strides
//                       overlap: overlap fraction = 1 - stride/length)
//   --mode M            incremental | scratch (default incremental) — the
//                       incremental path diffs consecutive windows and
//                       recomputes dirty focal nodes only
//   --max-lag L         deepest lag for the persistence-by-lag table
//                       (default 5)
//
// faultcheck flags:
//   --fraction F        per-fault-type injection probability (default 0.01)
//   --seed S            fault injector seed (default 1)
//   --max-drift D       fail (exit 1) if any scheme's mean Jaccard drift
//                       exceeds D (default 0.25)
//
// Example:
//   commsig selfmatch --trace flows.csv --window-length 432000
//       --scheme 'rwr(c=0.1,h=3)' --dist shel     (one line)

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <unistd.h>

#include "apps/anomaly.h"
#include "apps/masquerade_detector.h"
#include "apps/multiusage.h"
#include "common/bytes.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/distance.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "data/netflow.h"
#include "ingest/pipeline.h"
#include "eval/properties.h"
#include "eval/timeline.h"
#include "graph/decayed_accumulator.h"
#include "graph/graph_stats.h"
#include "graph/windower.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "obs/window_stats.h"
#include "robust/checkpoint.h"
#include "robust/degradation.h"
#include "robust/failpoints.h"
#include "robust/fault_injector.h"
#include "robust/record_errors.h"
#include "robust/retry.h"
#include "robust/supervisor.h"
#include "sketch/streaming_signatures.h"

namespace commsig {
namespace {

/// Rejects a malformed flag value with a message naming the flag. Exits
/// rather than returning: every caller would otherwise have to thread a
/// Status through, and a CLI flag error has exactly one sensible outcome.
[[noreturn]] void DieInvalidFlag(const std::string& key,
                                 const std::string& value,
                                 const char* expected) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
               key.c_str(), value.c_str(), expected);
  std::exit(2);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    uint64_t v = std::strtoull(s.c_str(), &end, 10);
    // strtoull silently wraps negatives and stops at the first bad char;
    // require the whole token to be a non-negative in-range integer.
    if (s.empty() || s[0] == '-' || end != s.c_str() + s.size() ||
        errno == ERANGE) {
      DieInvalidFlag(key, s, "a non-negative integer");
    }
    return v;
  }
  /// GetInt for flags where 0 is not a usable setting, rejected like any
  /// other malformed value: --k 0 makes every signature empty (and every
  /// pair of them at distance 0), --window-length 0 silently degenerates
  /// to one-unit windows.
  uint64_t GetPositiveInt(const std::string& key, uint64_t fallback) const {
    const uint64_t v = GetInt(key, fallback);
    if (v == 0) DieInvalidFlag(key, Get(key, "0"), "a positive integer");
    return v;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
        !std::isfinite(v)) {
      DieInvalidFlag(key, s, "a finite number");
    }
    return v;
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: commsig <signatures|selfmatch|multiusage|masquerade|"
               "anomalies|stream|faultcheck|chaoscheck|timeline> "
               "--trace PATH [flags]\n"
               "see the header of tools/commsig_main.cc for all flags\n");
  return 2;
}

/// Builds reader options from the --on-error / --error-budget flags.
IngestOptions IngestFromArgs(const Args& args, RecordErrorLog* log) {
  IngestOptions opts;
  std::string policy = args.Get("on-error", "fail");
  if (policy == "fail") {
    opts.policy = ErrorPolicy::kFail;
  } else if (policy == "skip") {
    opts.policy = ErrorPolicy::kSkip;
  } else if (policy == "quarantine") {
    opts.policy = ErrorPolicy::kQuarantine;
  } else {
    DieInvalidFlag("on-error", policy, "fail | skip | quarantine");
  }
  opts.max_errors = args.GetInt("error-budget", 100000);
  opts.error_log = log;
  return opts;
}

/// Builds the ingestion-pipeline configuration from the --parse-workers /
/// --io-chunk-kb / --ingest-queue / --backpressure flags. The error policy
/// (and its log/budget pointers) rides along so the pipeline's merge stage
/// applies it in exact stream order.
ingest::PipelineOptions PipelineFromArgs(const Args& args,
                                         const IngestOptions& ingest_opts) {
  ingest::PipelineOptions opts;
  // 0 is accepted and clamps to one worker inside the pipeline.
  opts.parse_workers = static_cast<int>(args.GetInt("parse-workers", 1));
  opts.chunk_bytes =
      static_cast<size_t>(args.GetInt("io-chunk-kb", 256)) * 1024;
  opts.queue_capacity = args.GetInt("ingest-queue", 8);
  const std::string policy = args.Get("backpressure", "block");
  if (policy == "shed") {
    opts.backpressure = ingest::BackpressurePolicy::kShed;
  } else if (policy != "block") {
    DieInvalidFlag("backpressure", policy, "block | shed");
  }
  opts.ingest = ingest_opts;
  return opts;
}

/// Builds the IO retry policy from the --retry-* flags.
RetryPolicy RetryFromArgs(const Args& args) {
  RetryPolicy policy;
  policy.max_attempts =
      static_cast<uint32_t>(args.GetInt("retry-max-attempts", 4));
  policy.initial_backoff_ms = args.GetInt("retry-initial-ms", 5);
  policy.max_backoff_ms = args.GetInt("retry-max-ms", 200);
  policy.multiplier = args.GetDouble("retry-multiplier", 2.0);
  policy.jitter = args.GetDouble("retry-jitter", 0.25);
  policy.deadline_ms = args.GetInt("retry-deadline-ms", 0);
  return policy;
}

/// Builds the degradation-ladder knobs from the --degrade-* flags.
DegradationController::Options DegradeFromArgs(const Args& args) {
  DegradationController::Options opts;
  opts.escalate_after =
      static_cast<uint32_t>(args.GetInt("degrade-escalate-after", 3));
  opts.recover_after =
      static_cast<uint32_t>(args.GetInt("degrade-recover-after", 8));
  opts.checkpoint_stretch = args.GetInt("degrade-checkpoint-stretch", 4);
  return opts;
}

/// Splits a comma-separated flag value into its non-empty components.
std::vector<std::string> SplitPaths(const std::string& value) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t comma = value.find(',', begin);
    if (comma == std::string::npos) comma = value.size();
    if (comma > begin) out.push_back(value.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}

/// Microseconds on the shared steady clock (the trace collector epoch), so
/// pipeline attribution and span timestamps line up in /varz and /tracez.
uint64_t NowMicros() { return obs::TraceCollector::Global().NowMicros(); }

/// Reads the input trace (CSV or NetFlow) through the staged ingestion
/// pipeline under the requested error policy, reporting and optionally
/// dumping quarantined records. The decode is attributed to the pipeline's
/// parse stage.
bool LoadEvents(const Args& args, Interner& interner,
                std::vector<TraceEvent>& events) {
  std::string trace_path = args.Get("trace", "");
  std::string netflow_path = args.Get("netflow", "");
  if (trace_path.empty() == netflow_path.empty()) {
    obs::LogError("bad_flags")
        .Str("error", "exactly one of --trace / --netflow is required");
    return false;
  }
  RecordErrorLog error_log;
  ingest::PipelineOptions options =
      PipelineFromArgs(args, IngestFromArgs(args, &error_log));
  const bool netflow = !netflow_path.empty();
  const ingest::PipelineFormat format =
      netflow ? ingest::PipelineFormat::kNetflowV5
              : ingest::PipelineFormat::kTraceCsv;
  if (netflow) {
    options.netflow.protocol_filter =
        static_cast<uint8_t>(args.GetInt("protocol", 6));
  }
  const std::vector<std::string> paths =
      netflow ? std::vector<std::string>{netflow_path}
              : SplitPaths(trace_path);
  if (paths.empty()) {
    obs::LogError("bad_flags").Str("error", "--trace lists no paths");
    return false;
  }
  // Run-wide budget shared by every file of this ingest (--trace accepts a
  // comma-separated list); 0 leaves only the per-file budget active.
  GlobalErrorBudget global_budget;
  global_budget.max_total_errors = args.GetInt("max-total-errors", 0);
  if (global_budget.max_total_errors > 0) {
    options.ingest.global_budget = &global_budget;
  }
  // Reading an input is retryable IO: a file served off flaky network
  // storage gets the same backoff treatment as a checkpoint write.
  Retrier retrier(RetryFromArgs(args));
  const uint64_t parse_start_us = NowMicros();
  for (const std::string& path : paths) {
    std::vector<TraceEvent> file_events;
    Status s = retrier.Run("reader_open", [&]() {
      Status fp = failpoints::Inject("reader/open");
      if (!fp.ok()) return fp;
      // A retry re-reads the file from byte 0, so each attempt charges its
      // rejects to copies of the log and the run-wide budget, committed
      // only when the attempt succeeds: a failed attempt's rejects must not
      // count twice.
      RecordErrorLog attempt_log = error_log;
      GlobalErrorBudget attempt_budget = global_budget;
      ingest::PipelineOptions attempt = options;
      attempt.ingest.error_log = &attempt_log;
      if (attempt.ingest.global_budget != nullptr) {
        attempt.ingest.global_budget = &attempt_budget;
      }
      auto loaded =
          ingest::ReadTraceEventsPipelined(path, format, interner, attempt);
      if (!loaded.ok()) return loaded.status();
      file_events = std::move(*loaded);
      error_log = std::move(attempt_log);
      global_budget = attempt_budget;
      return Status::OK();
    });
    if (!s.ok()) {
      if (netflow) {
        obs::LogError("netflow_load_failed")
            .Str("path", path)
            .Str("error", s.ToString());
      } else {
        obs::LogError("trace_load_failed")
            .Str("path", path)
            .Str("error", s.ToString());
      }
      return false;
    }
    if (events.empty()) {
      events = std::move(file_events);
    } else {
      events.insert(events.end(), file_events.begin(), file_events.end());
    }
  }
  obs::WindowStatsAggregator::Global().RecordSetupStage(
      obs::PipelineStage::kParse, NowMicros() - parse_start_us);
  if (error_log.total() > 0) {
    obs::LogWarn("records_rejected")
        .U64("rejected", error_log.total())
        .Str("path", trace_path.empty() ? netflow_path : trace_path);
  }
  std::string quarantine_out = args.Get("quarantine-out", "");
  if (!quarantine_out.empty()) {
    Status s = error_log.WriteCsv(quarantine_out);
    if (!s.ok()) {
      obs::LogError("quarantine_write_failed")
          .Str("path", quarantine_out)
          .Str("error", s.ToString());
      return false;
    }
    obs::LogInfo("quarantine_written")
        .Str("path", quarantine_out)
        .U64("records", error_log.total());
  }
  return true;
}

/// Everything loaded from the trace that the subcommands share.
struct Workspace {
  Interner interner;
  std::vector<CommGraph> windows;
  std::vector<NodeId> focal;  // nodes with outgoing traffic in any window
  std::unique_ptr<ThreadPool> pool = std::make_unique<ThreadPool>(1);

  std::vector<Signature> Signatures(const SignatureScheme& scheme,
                                    size_t window) {
    return ComputeAllParallel(scheme, windows[window], focal, *pool);
  }
};

bool Load(const Args& args, Workspace& ws) {
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, ws.interner, events)) return false;
  uint64_t window_length = args.GetPositiveInt("window-length", 86400);
  TraceWindower windower(ws.interner.size(), window_length);
  const uint64_t build_start_us = NowMicros();
  ws.windows = windower.Split(events);
  obs::WindowStatsAggregator::Global().RecordSetupStage(
      obs::PipelineStage::kWindowBuild, NowMicros() - build_start_us);
  if (ws.windows.empty()) {
    obs::LogError("no_windows").U64("events", events.size());
    return false;
  }
  // Optional COI-style decayed accumulation: window i becomes the decayed
  // sum of windows 0..i.
  double theta = args.GetDouble("decay", 0.0);
  if (theta > 0.0) {
    if (theta >= 1.0) {
      obs::LogError("bad_flags").Str("error", "--decay must be in [0, 1)");
      return false;
    }
    DecayedGraphAccumulator acc(ws.interner.size(), theta);
    std::vector<CommGraph> decayed;
    decayed.reserve(ws.windows.size());
    for (const CommGraph& g : ws.windows) {
      acc.AddWindow(g);
      decayed.push_back(acc.Current());
    }
    ws.windows = std::move(decayed);
  }
  std::vector<bool> has_out(ws.interner.size(), false);
  for (const auto& g : ws.windows) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.OutDegree(v) > 0) has_out[v] = true;
    }
  }
  for (NodeId v = 0; v < has_out.size(); ++v) {
    if (has_out[v]) ws.focal.push_back(v);
  }
  size_t threads = args.GetInt("threads", 1);
  if (threads > 1) ws.pool = std::make_unique<ThreadPool>(threads);
  obs::LogInfo("trace_loaded")
      .U64("events", events.size())
      .U64("nodes", ws.interner.size())
      .U64("windows", ws.windows.size())
      .U64("focal_nodes", ws.focal.size());
  return true;
}

Result<std::unique_ptr<SignatureScheme>> SchemeFor(const Args& args) {
  SchemeOptions opts;
  opts.k = args.GetPositiveInt("k", 10);
  return CreateScheme(args.Get("scheme", "tt"), opts);
}

Result<DistanceKind> DistFor(const Args& args) {
  return ParseDistanceName(args.Get("dist", "shel"));
}

int RunSignatures(const Args& args, Workspace& ws) {
  size_t window = args.GetInt("window", 0);
  if (window >= ws.windows.size()) {
    obs::LogError("window_out_of_range")
        .U64("window", window)
        .U64("windows", ws.windows.size());
    return 1;
  }
  auto scheme = SchemeFor(args);
  if (!scheme.ok()) {
    obs::LogError("bad_scheme").Str("error", scheme.status().ToString());
    return 1;
  }
  auto sigs = ws.Signatures(**scheme, window);
  for (size_t i = 0; i < ws.focal.size(); ++i) {
    if (sigs[i].empty()) continue;
    std::printf("%s\t%s\n", ws.interner.LabelOf(ws.focal[i]).c_str(),
                sigs[i].ToString(ws.interner).c_str());
  }
  return 0;
}

int RunSelfMatch(const Args& args, Workspace& ws) {
  size_t w0 = args.GetInt("window", 0);
  size_t w1 = args.GetInt("window2", 1);
  if (w0 >= ws.windows.size() || w1 >= ws.windows.size()) {
    obs::LogError("window_out_of_range").U64("windows", ws.windows.size());
    return 1;
  }
  auto scheme = SchemeFor(args);
  auto dist = DistFor(args);
  if (!scheme.ok() || !dist.ok()) {
    obs::LogError("bad_scheme_or_distance");
    return 1;
  }
  auto s0 = ws.Signatures(**scheme, w0);
  auto s1 = ws.Signatures(**scheme, w1);
  SignatureDistance d(*dist);
  auto rocs = SelfMatchRoc(s0, s1, d);
  PropertyEllipse e = SummarizeProperties(s0, s1, d, 50000);
  std::printf("scheme=%s dist=%s windows=%zu->%zu\n",
              (*scheme)->name().c_str(), std::string(DistanceName(*dist)).c_str(),
              w0, w1);
  std::printf("self-match AUC  %.4f\n", MeanAuc(rocs));
  std::printf("persistence     %.4f +- %.4f\n", e.mean_persistence,
              e.std_persistence);
  std::printf("uniqueness      %.4f +- %.4f\n", e.mean_uniqueness,
              e.std_uniqueness);
  return 0;
}

int RunMultiusage(const Args& args, Workspace& ws) {
  size_t window = args.GetInt("window", 0);
  if (window >= ws.windows.size()) {
    obs::LogError("window_out_of_range")
        .U64("window", window)
        .U64("windows", ws.windows.size());
    return 1;
  }
  auto scheme = SchemeFor(args);
  auto dist = DistFor(args);
  if (!scheme.ok() || !dist.ok()) return 1;
  auto sigs = ws.Signatures(**scheme, window);
  MultiusageDetector detector(
      SignatureDistance(*dist),
      {.threshold = args.GetDouble("threshold", 0.5),
       .max_pairs = args.GetInt("max-pairs", 50)});
  auto pairs = detector.Detect(ws.focal, sigs);
  std::printf("%zu candidate alias pair(s)\n", pairs.size());
  for (const auto& p : pairs) {
    std::printf("%.4f\t%s\t%s\n", p.distance,
                ws.interner.LabelOf(p.a).c_str(),
                ws.interner.LabelOf(p.b).c_str());
  }
  return 0;
}

int RunMasquerade(const Args& args, Workspace& ws) {
  size_t w0 = args.GetInt("window", 0);
  size_t w1 = args.GetInt("window2", 1);
  if (w0 >= ws.windows.size() || w1 >= ws.windows.size()) {
    obs::LogError("window_out_of_range").U64("windows", ws.windows.size());
    return 1;
  }
  auto scheme = SchemeFor(args);
  auto dist = DistFor(args);
  if (!scheme.ok() || !dist.ok()) return 1;
  auto s0 = ws.Signatures(**scheme, w0);
  auto s1 = ws.Signatures(**scheme, w1);
  MasqueradeDetector detector(
      SignatureDistance(*dist),
      {.top_ell = args.GetInt("ell", 3),
       .delta_divisor = args.GetDouble("delta-divisor", 5.0)});
  auto detection = detector.Detect(ws.focal, s0, s1);
  std::printf("delta=%.4f, cleared=%zu, suspected pairs=%zu\n",
              detection.delta, detection.non_suspects.size(),
              detection.detected.size());
  for (const auto& [v, u] : detection.detected) {
    std::printf("%s\t-> now appears as\t%s\n",
                ws.interner.LabelOf(v).c_str(),
                ws.interner.LabelOf(u).c_str());
  }
  return 0;
}

int RunAnomalies(const Args& args, Workspace& ws) {
  size_t w0 = args.GetInt("window", 0);
  size_t w1 = args.GetInt("window2", 1);
  if (w0 >= ws.windows.size() || w1 >= ws.windows.size()) {
    obs::LogError("window_out_of_range").U64("windows", ws.windows.size());
    return 1;
  }
  auto scheme = SchemeFor(args);
  auto dist = DistFor(args);
  if (!scheme.ok() || !dist.ok()) return 1;
  auto s0 = ws.Signatures(**scheme, w0);
  auto s1 = ws.Signatures(**scheme, w1);
  auto anomalies =
      DetectAnomalies(ws.focal, s0, s1, SignatureDistance(*dist),
                      args.GetDouble("threshold", 2.0));
  std::printf("%zu anomalies between windows %zu and %zu\n",
              anomalies.size(), w0, w1);
  for (const Anomaly& a : anomalies) {
    std::printf("%s\tpersistence=%.4f\t%.1f sigma below mean\n",
                ws.interner.LabelOf(a.node).c_str(), a.persistence,
                a.deviations_below_mean);
  }
  return 0;
}

/// Writes the --metrics-out / --trace-out artifacts (defined after the
/// subcommands; `stream` also calls it mid-run at the checkpoint cadence,
/// under the retry policy — hence the Status).
Status FlushTelemetry(const Args& args, bool final_export);

/// Nodes with outgoing traffic anywhere in the stream — the focal
/// population whose signatures `stream` maintains.
std::vector<NodeId> FocalFromEvents(const Interner& interner,
                                    const std::vector<TraceEvent>& events) {
  std::vector<bool> is_src(interner.size(), false);
  for (const TraceEvent& e : events) {
    if (e.src < is_src.size()) is_src[e.src] = true;
  }
  std::vector<NodeId> focal;
  for (NodeId v = 0; v < is_src.size(); ++v) {
    if (is_src[v]) focal.push_back(v);
  }
  return focal;
}

/// Assembles the supervisor configuration shared by `stream` and
/// `chaoscheck` from the flags.
StreamSupervisor::Options SupervisorFromArgs(const Args& args,
                                             const std::string& ckpt_dir,
                                             RecordErrorLog* dead_letters) {
  StreamSupervisor::Options opts;
  opts.k = args.GetPositiveInt("k", 10);
  opts.checkpoint_every = args.GetInt("checkpoint-every", 10000);
  opts.emit_every = args.GetInt("emit-every", 0);
  opts.kill_after = args.GetInt("kill-after", 0);
  opts.replay_delay_us = args.GetInt("replay-delay-us", 0);
  opts.replay_rate = args.GetDouble("replay-rate", 0.0);
  opts.checkpoint_dir = ckpt_dir;
  opts.max_epoch_attempts =
      static_cast<uint32_t>(args.GetInt("max-epoch-attempts", 3));
  opts.epoch_budget_us = args.GetInt("window-budget-ms", 0) * 1000;
  opts.retry = RetryFromArgs(args);
  opts.degrade = DegradeFromArgs(args);
  opts.builder.seed = args.GetInt("seed", 0xc0de);
  opts.dead_letters = dead_letters;
  opts.manage_tracing = true;
  if (!args.Get("metrics-out", "").empty() ||
      !args.Get("trace-out", "").empty()) {
    opts.flush_telemetry = [&args]() {
      return FlushTelemetry(args, /*final_export=*/false);
    };
  }
  return opts;
}

int RunStream(const Args& args) {
  Interner interner;
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, interner, events)) return 1;
  const size_t k = args.GetPositiveInt("k", 10);

  RecordErrorLog dead_letters;
  StreamSupervisor::Options opts =
      SupervisorFromArgs(args, args.Get("checkpoint-dir", ""), &dead_letters);
  StreamSupervisor supervisor(FocalFromEvents(interner, events),
                              std::move(opts));
  StreamRunReport report = supervisor.Run(events);

  obs::LogInfo("stream_supervisor_report")
      .U64("start_event", report.start_event)
      .U64("events_processed", report.events_processed)
      .U64("epoch_retries", report.epoch_retries)
      .U64("epochs_rebuilt", report.epochs_rebuilt)
      .U64("epochs_quarantined", report.epochs_quarantined)
      .U64("checkpoints_saved", report.checkpoints_saved)
      .U64("checkpoint_save_failures", report.checkpoint_save_failures)
      .U64("io_retries", report.io_retries)
      .Str("final_tier", DegradationTierName(report.final_tier))
      .Bool("restored", report.restored_from_checkpoint)
      .Bool("fallback_restore", report.restored_from_fallback);

  std::string dead_letter_out = args.Get("dead-letter-out", "");
  if (!dead_letter_out.empty() && dead_letters.total() > 0) {
    Status s = dead_letters.WriteCsv(dead_letter_out);
    if (!s.ok()) {
      obs::LogError("dead_letter_write_failed")
          .Str("path", dead_letter_out)
          .Str("error", s.ToString());
    }
  }
  if (report.killed) return 3;

  for (NodeId v : supervisor.focal()) {
    Signature tt = supervisor.builder()->TopTalkers(v, k);
    Signature ut = supervisor.builder()->UnexpectedTalkers(v, k);
    std::printf("%s\ttt\t%s\n", interner.LabelOf(v).c_str(),
                tt.ToString(interner).c_str());
    std::printf("%s\tut\t%s\n", interner.LabelOf(v).c_str(),
                ut.ToString(interner).c_str());
  }
  return 0;
}

/// One fault scenario of the chaos schedule: a fail-point spec armed for a
/// segment of the stream. Empty spec = a pure kill/restart segment.
struct ChaosScenario {
  const char* name;
  const char* spec;
};

constexpr ChaosScenario kChaosScenarios[] = {
    {"clean_kill", ""},
    {"enospc_on_checkpoint_write", "checkpoint/write=enospc@0x1"},
    {"fsync_fail_on_checkpoint", "checkpoint/fsync=fsync_fail@0x1"},
    {"torn_checkpoint_rename", "checkpoint/rename=torn_rename@0x1"},
    {"enospc_on_telemetry_flush", "telemetry/flush=enospc@0x2"},
    {"transient_epoch_fault", "stream/epoch=eio@0x2"},
    {"short_write_on_checkpoint", "checkpoint/write=short_write@0x1"},
};

int RunChaoscheck(const Args& args) {
  if (!failpoints::Enabled()) {
    obs::LogError("chaoscheck_unavailable")
        .Str("error", "binary built without COMMSIG_FAILPOINTS");
    return 2;
  }
  Interner interner;
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, interner, events)) return 1;
  if (events.empty()) {
    obs::LogError("chaoscheck_no_events");
    return 1;
  }
  const size_t k = args.GetPositiveInt("k", 10);
  const uint64_t trials = args.GetInt("trials", 3);
  const uint64_t seed = args.GetInt("seed", 1);
  const std::vector<NodeId> focal = FocalFromEvents(interner, events);

  namespace fs = std::filesystem;
  std::string chaos_dir = args.Get("chaos-dir", "");
  const bool own_dir = chaos_dir.empty();
  if (own_dir) {
    chaos_dir = (fs::temp_directory_path() /
                 ("commsig_chaos_" + std::to_string(::getpid())))
                    .string();
  }

  // Reference: one fault-free supervised run. Everything after it must
  // converge to these exact signature bytes.
  FailPointRegistry::Global().Reset();
  std::vector<std::string> reference;
  {
    RecordErrorLog dead_letters;
    StreamSupervisor::Options opts =
        SupervisorFromArgs(args, "", &dead_letters);
    opts.kill_after = 0;
    StreamSupervisor ref(focal, std::move(opts));
    StreamRunReport report = ref.Run(events);
    if (report.killed || report.epochs_quarantined > 0) {
      obs::LogError("chaoscheck_reference_failed");
      return 1;
    }
    for (NodeId v : focal) {
      reference.push_back(ref.builder()->TopTalkers(v, k).ToString(interner));
      reference.push_back(
          ref.builder()->UnexpectedTalkers(v, k).ToString(interner));
    }
  }

  Rng rng(seed != 0 ? seed : 1);
  int rc = 0;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    std::error_code ec;
    fs::remove_all(chaos_dir, ec);
    uint64_t position = 0;
    uint64_t segments = 0;
    uint64_t retries = 0;
    uint64_t rebuilt = 0;
    uint64_t quarantined = 0;
    uint64_t fallback_restores = 0;
    StreamRunReport report;
    std::string final_signatures_verdict = "pass";

    // Keep killing and restarting until a segment runs to completion; each
    // segment gets a fresh supervisor (a new process, morally) plus one
    // randomly drawn fault scenario.
    while (true) {
      const ChaosScenario& scenario =
          kChaosScenarios[rng.UniformInt(std::size(kChaosScenarios))];
      FailPointRegistry::Global().Reset();
      if (scenario.spec[0] != '\0') {
        Status armed = FailPointRegistry::Global().ArmFromSpec(scenario.spec);
        if (!armed.ok()) {
          obs::LogError("chaoscheck_bad_scenario")
              .Str("scenario", scenario.name)
              .Str("error", armed.ToString());
          return 1;
        }
      }
      const uint64_t remaining = events.size() - position;
      // Kill somewhere inside the remaining stream on most segments; a
      // draw past the end lets the segment complete.
      const uint64_t kill_after =
          1 + rng.UniformInt(remaining + remaining / 2 + 1);

      RecordErrorLog dead_letters;
      StreamSupervisor::Options opts =
          SupervisorFromArgs(args, chaos_dir, &dead_letters);
      opts.kill_after = kill_after;
      StreamSupervisor supervisor(focal, std::move(opts));
      report = supervisor.Run(events);
      ++segments;
      retries += report.epoch_retries;
      rebuilt += report.epochs_rebuilt;
      quarantined += report.epochs_quarantined;
      if (report.restored_from_fallback) ++fallback_restores;
      position = report.final_position;
      obs::LogInfo("chaos_segment")
          .U64("trial", trial)
          .U64("segment", segments)
          .Str("scenario", scenario.name)
          .U64("kill_after", kill_after)
          .U64("position", position)
          .Bool("killed", report.killed);
      if (!report.killed) {
        FailPointRegistry::Global().Reset();
        if (quarantined > 0) {
          // Quarantine is correct behaviour for poison input, but these
          // scenarios are all recoverable — reaching it means the
          // supervisor gave up on an epoch it should have healed.
          final_signatures_verdict = "quarantined";
        } else {
          size_t idx = 0;
          for (NodeId v : focal) {
            if (supervisor.builder()->TopTalkers(v, k).ToString(interner) !=
                    reference[idx] ||
                supervisor.builder()
                        ->UnexpectedTalkers(v, k)
                        .ToString(interner) != reference[idx + 1]) {
              final_signatures_verdict = "diverged";
              break;
            }
            idx += 2;
          }
        }
        break;
      }
    }

    const bool pass = final_signatures_verdict == "pass";
    if (!pass) rc = 1;
    std::printf(
        "trial %llu: %s  segments=%llu retries=%llu rebuilt=%llu "
        "quarantined=%llu fallback_restores=%llu\n",
        static_cast<unsigned long long>(trial),
        final_signatures_verdict.c_str(),
        static_cast<unsigned long long>(segments),
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(rebuilt),
        static_cast<unsigned long long>(quarantined),
        static_cast<unsigned long long>(fallback_restores));
    obs::LogInfo("chaos_trial_done")
        .U64("trial", trial)
        .Str("verdict", final_signatures_verdict)
        .U64("segments", segments);
  }

  if (own_dir) {
    std::error_code ec;
    fs::remove_all(chaos_dir, ec);
  }
  std::printf("chaoscheck: %s (%llu trial(s), seed %llu)\n",
              rc == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(trials),
              static_cast<unsigned long long>(seed));
  return rc;
}

int RunFaultcheck(const Args& args) {
  Interner interner;
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, interner, events)) return 1;
  const double fraction = args.GetDouble("fraction", 0.01);
  const double max_drift = args.GetDouble("max-drift", 0.25);
  const size_t k = args.GetPositiveInt("k", 10);
  const uint64_t window_length = args.GetPositiveInt("window-length", 86400);

  FaultInjector::Options fopts;
  fopts.seed = args.GetInt("seed", 1);
  fopts.p_drop = fraction;
  fopts.p_duplicate = fraction;
  fopts.p_corrupt_weight = fraction;
  fopts.p_corrupt_time = fraction;
  fopts.p_swap = fraction;
  FaultInjector injector(fopts);
  std::vector<TraceEvent> perturbed = injector.PerturbEvents(events);
  obs::LogInfo("faults_injected")
      .Str("report", injector.report().ToString());

  TraceWindower windower(interner.size(), window_length);
  std::vector<CommGraph> clean = windower.Split(events);
  std::vector<CommGraph> dirty = windower.Split(perturbed);
  if (clean.empty() || dirty.empty()) {
    obs::LogError("no_windows").Str("detail", "trace produced no windows");
    return 1;
  }
  const CommGraph& g0 = clean[0];
  const CommGraph& g1 = dirty[0];

  std::vector<NodeId> focal;
  for (NodeId v = 0; v < g0.NumNodes(); ++v) {
    if (g0.OutDegree(v) > 0) focal.push_back(v);
  }

  SignatureDistance jaccard(DistanceKind::kJaccard);
  int rc = 0;
  for (const char* spec : {"tt", "ut", "rwr(c=0.1,h=3)", "rwr(c=0.1)"}) {
    SchemeOptions scheme_opts;
    scheme_opts.k = k;
    auto scheme = CreateScheme(spec, scheme_opts);
    if (!scheme.ok()) {
      obs::LogError("bad_scheme")
          .Str("spec", spec)
          .Str("status", scheme.status().ToString());
      return 1;
    }
    const std::vector<Signature> before = (*scheme)->ComputeAll(g0, focal);
    const std::vector<Signature> after = (*scheme)->ComputeAll(g1, focal);
    double sum = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < focal.size(); ++i) {
      if (before[i].empty() && after[i].empty()) continue;
      sum += jaccard(before[i], after[i]);
      ++n;
    }
    const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
    std::printf("%-16s mean Dist_Jac drift over %zu focal node(s): %.4f\n",
                (*scheme)->name().c_str(), n, mean);
    if (mean > max_drift) {
      std::printf("%-16s drift %.4f exceeds --max-drift %.4f\n",
                  (*scheme)->name().c_str(), mean, max_drift);
      rc = 1;
    }
  }
  return rc;
}

int RunTimeline(const Args& args) {
  Interner interner;
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, interner, events)) return 1;
  const uint64_t window_length = args.GetPositiveInt("window-length", 86400);
  const uint64_t stride = args.GetInt("stride", window_length);
  if (stride == 0 || stride > window_length) {
    obs::LogError("bad_flags")
        .Str("detail", "--stride must be in [1, --window-length]");
    return 1;
  }
  TraceWindower windower(interner.size(), window_length);
  const uint64_t split_begin_us = NowMicros();
  std::vector<CommGraph> windows = windower.SplitSliding(events, stride);
  obs::WindowStatsAggregator::Global().RecordSetupStage(
      obs::PipelineStage::kWindowBuild, NowMicros() - split_begin_us);
  if (windows.empty()) {
    obs::LogError("no_windows").Str("detail", "trace produced no windows");
    return 1;
  }

  std::vector<NodeId> focal;
  {
    std::vector<bool> has_out(interner.size(), false);
    for (const auto& g : windows) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        if (g.OutDegree(v) > 0) has_out[v] = true;
      }
    }
    for (NodeId v = 0; v < has_out.size(); ++v) {
      if (has_out[v]) focal.push_back(v);
    }
  }

  auto scheme = SchemeFor(args);
  auto dist = DistFor(args);
  if (!scheme.ok() || !dist.ok()) {
    obs::LogError("bad_scheme_or_distance")
        .Str("scheme_status",
             scheme.ok() ? "ok" : scheme.status().ToString())
        .Str("dist_status", dist.ok() ? "ok" : dist.status().ToString());
    return 1;
  }
  SignatureTimelineOptions topts;
  const std::string mode = args.Get("mode", "incremental");
  if (mode == "incremental") {
    topts.incremental = true;
  } else if (mode == "scratch") {
    topts.incremental = false;
  } else {
    DieInvalidFlag("mode", mode, "incremental | scratch");
  }

  auto per_window = ComputeSignatureTimeline(**scheme, windows, focal, topts);
  const double overlap =
      1.0 - static_cast<double>(stride) / static_cast<double>(window_length);
  std::printf("scheme=%s dist=%s windows=%zu stride=%llu overlap=%.2f "
              "mode=%s focal=%zu\n",
              (*scheme)->name().c_str(),
              std::string(DistanceName(*dist)).c_str(), windows.size(),
              static_cast<unsigned long long>(stride), overlap, mode.c_str(),
              focal.size());

  SignatureDistance d(*dist);
  const uint64_t persist_begin_us = NowMicros();
  for (const TransitionStats& t : PersistencePerTransition(per_window, d)) {
    std::printf("transition %zu->%zu  persistence %.4f +- %.4f\n",
                t.from_window, t.from_window + 1, t.mean_persistence,
                t.std_persistence);
  }
  for (const LagStats& l :
       PersistenceByLag(per_window, d, args.GetInt("max-lag", 5))) {
    std::printf("lag %zu  persistence %.4f +- %.4f  (%zu pair(s))\n", l.lag,
                l.mean_persistence, l.std_persistence, l.samples);
  }
  // The per-window advances were attributed inside the engine; the
  // cross-window persistence scan is a one-shot distance/extract stage.
  obs::WindowStatsAggregator::Global().RecordSetupStage(
      obs::PipelineStage::kExtract, NowMicros() - persist_begin_us);
  return 0;
}

/// Writes the requested observability artifacts. `final_export` is the
/// end-of-command export (logged at info); the periodic in-run flushes
/// during `stream` log at debug so they don't drown the event stream.
/// Returns the first write failure so the supervisor's retry loop can
/// re-drive a flush that hit a transient IO error.
Status FlushTelemetry(const Args& args, bool final_export) {
  Status first = failpoints::Inject("telemetry/flush");
  const obs::LogLevel ok_level =
      final_export ? obs::LogLevel::kInfo : obs::LogLevel::kDebug;
  std::string metrics_out = args.Get("metrics-out", "");
  if (!metrics_out.empty() && first.ok()) {
    Status s = obs::MetricsRegistry::Global().WriteJsonFile(metrics_out);
    if (!s.ok()) {
      obs::LogError("metrics_write_failed")
          .Str("path", metrics_out)
          .Str("status", s.ToString());
      first = s;
    } else {
      obs::Log(ok_level, "metrics_written")
          .Str("path", metrics_out)
          .Bool("final", final_export);
    }
  }
  std::string trace_out = args.Get("trace-out", "");
  if (!trace_out.empty() && first.ok()) {
    Status s = obs::TraceCollector::Global().WriteChromeTraceFile(trace_out);
    if (!s.ok()) {
      obs::LogError("trace_write_failed")
          .Str("path", trace_out)
          .Str("status", s.ToString());
      first = s;
    } else {
      obs::Log(ok_level, "trace_written")
          .Str("path", trace_out)
          .Str("viewer", "chrome://tracing or ui.perfetto.dev")
          .Bool("final", final_export);
    }
  }
  return first;
}

/// Applies the logging flags before anything can emit a structured line.
/// Returns false (after a raw-stderr diagnostic) on unusable flag values.
bool ConfigureLogging(const Args& args) {
  std::string level_name = args.Get("log-level", "");
  if (!level_name.empty()) {
    obs::LogLevel level = obs::LogLevel::kInfo;
    if (!obs::ParseLogLevel(level_name, level)) {
      std::fprintf(stderr, "invalid --log-level %s "
                   "(expected debug | info | warn | error)\n",
                   level_name.c_str());
      return false;
    }
    obs::LogSink::Global().SetMinLevel(level);
  }
  std::string log_file = args.Get("log-file", "");
  if (!log_file.empty()) {
    // The log sink is itself retryable IO: a transient open failure (NFS
    // hiccup, slow mount) should not kill the whole run.
    Retrier retrier(RetryFromArgs(args));
    Status s = retrier.Run("logsink_open", [&log_file]() {
      Status fp = failpoints::Inject("logsink/open");
      if (!fp.ok()) return fp;
      return obs::LogSink::Global().OpenFile(log_file);
    });
    if (!s.ok()) {
      std::fprintf(stderr, "cannot open --log-file %s: %s\n",
                   log_file.c_str(), s.ToString().c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage();
    if (i + 1 == argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    args.flags[flag.substr(2)] = argv[i + 1];
  }

  // Arm fail-points before anything does IO (including the log sink), so a
  // spec can target every site in the process.
  std::string failpoint_spec = args.Get("failpoints", "");
  if (!failpoint_spec.empty()) {
    if (!failpoints::Enabled()) {
      std::fprintf(stderr,
                   "--failpoints requires a build with -DCOMMSIG_FAILPOINTS "
                   "(this binary was built without it)\n");
      return 2;
    }
    Status armed = FailPointRegistry::Global().ArmFromSpec(failpoint_spec);
    if (!armed.ok()) {
      DieInvalidFlag("failpoints", failpoint_spec,
                     "site=kind[@afterN][xM];... with kind one of eio | "
                     "enospc | short_write | torn_rename | fsync_fail");
    }
  }

  if (!ConfigureLogging(args)) return 1;

  // Stable snapshot keys even for paths this run never exercises.
  obs::PreRegisterCoreMetrics();
  if (!args.Get("trace-out", "").empty()) {
    obs::TraceCollector::Global().SetEnabled(true);
  }
  const uint64_t budget_ms = args.GetInt("window-budget-ms", 0);
  if (budget_ms > 0) {
    obs::WindowStatsAggregator::Global().SetLatencyBudgetUs(budget_ms * 1000);
  }

  // The introspection plane: serves /metrics, /varz, /healthz, /tracez and
  // /pipelinez for the lifetime of the command (plus an optional linger so
  // short runs stay probeable).
  std::unique_ptr<obs::StatsServer> stats_server;
  if (args.flags.count("stats-port") > 0) {
    obs::StatsServer::Options sopts;
    sopts.port = static_cast<uint16_t>(args.GetInt("stats-port", 0));
    sopts.stall_threshold_us = args.GetInt("stats-stall-ms", 30000) * 1000;
    stats_server = std::make_unique<obs::StatsServer>(sopts);
    Status s = stats_server->Start();
    if (!s.ok()) {
      obs::LogError("stats_server_start_failed")
          .Str("status", s.ToString());
      return 1;
    }
  }

  int rc;
  // stream, faultcheck and timeline manage their own event loading (they
  // need the raw stream or a sliding split, not the windowed Workspace).
  if (args.command == "stream" || args.command == "faultcheck" ||
      args.command == "timeline" || args.command == "chaoscheck") {
    rc = args.command == "stream"       ? RunStream(args)
         : args.command == "faultcheck" ? RunFaultcheck(args)
         : args.command == "chaoscheck" ? RunChaoscheck(args)
                                        : RunTimeline(args);
  } else {
    Workspace ws;
    if (!Load(args, ws)) return 1;
    if (args.command == "signatures") rc = RunSignatures(args, ws);
    else if (args.command == "selfmatch") rc = RunSelfMatch(args, ws);
    else if (args.command == "multiusage") rc = RunMultiusage(args, ws);
    else if (args.command == "masquerade") rc = RunMasquerade(args, ws);
    else if (args.command == "anomalies") rc = RunAnomalies(args, ws);
    else return Usage();
  }

  // Final export failures are already logged inside; they don't override
  // the command's exit code.
  Status flushed = FlushTelemetry(args, /*final_export=*/true);
  (void)flushed;

  if (stats_server != nullptr) {
    const uint64_t linger_ms = args.GetInt("stats-linger-ms", 0);
    if (linger_ms > 0) {
      obs::LogInfo("stats_server_lingering").U64("linger_ms", linger_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    }
    stats_server->Stop();
  }
  return rc;
}

}  // namespace
}  // namespace commsig

int main(int argc, char** argv) { return commsig::Main(argc, argv); }

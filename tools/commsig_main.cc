// commsig command-line tool: runs the library's signature pipeline on a
// trace CSV (rows `src,dst,time,weight`) or a NetFlow v5 export. `commsig
// --help` prints every subcommand and flag from kCommands and kFlags below;
// Args::Parse rejects any other flag or value before any IO.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "apps/anomaly.h"
#include "apps/masquerade_detector.h"
#include "apps/multiusage.h"
#include "common/check.h"
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
#include "graph/windower.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "obs/window_stats.h"
#include "robust/degradation.h"
#include "robust/failpoints.h"
#include "robust/fault_injector.h"
#include "robust/record_errors.h"
#include "robust/retry.h"
#include "robust/supervisor.h"
#include "sketch/streaming_signatures.h"

namespace commsig {
namespace {

enum Command : unsigned {
  kSignatures = 1 << 0,
  kSelfmatch = 1 << 1,
  kMultiusage = 1 << 2,
  kMasquerade = 1 << 3,
  kAnomalies = 1 << 4,
  kStream = 1 << 5,
  kFaultcheck = 1 << 6,
  kChaoscheck = 1 << 7,
  kTimeline = 1 << 8,
};
constexpr unsigned kAll = (1 << 9) - 1;
/// The subcommands that analyze the windowed Workspace (see Load).
constexpr unsigned kWorkspace =
    kSignatures | kSelfmatch | kMultiusage | kMasquerade | kAnomalies;
constexpr unsigned kTwoWindows = kSelfmatch | kMasquerade | kAnomalies;
constexpr unsigned kSupervised = kStream | kChaoscheck;

struct CommandInfo {
  const char* name;
  Command command;
  const char* help;
};

constexpr CommandInfo kCommands[] = {
    {"signatures", kSignatures, "per-node signatures of one window"},
    {"selfmatch", kSelfmatch, "cross-window self-match AUC (paper Fig. 2/3)"},
    {"multiusage", kMultiusage, "similar-signature pairs (paper Fig. 5)"},
    {"masquerade", kMasquerade, "Algorithm 1 masquerade detection"},
    {"anomalies", kAnomalies, "nodes whose behaviour broke between windows"},
    {"stream", kStream, "one-pass streaming TT/UT signatures (Section VI)"},
    {"faultcheck", kFaultcheck, "signature drift under injected faults"},
    {"chaoscheck", kChaoscheck, "stream recovery under kill/IO-fault chaos"},
    {"timeline", kTimeline, "persistence over (sliding) window sequences"},
};

enum class Kind { kUint, kDouble, kChoice, kString };
/// The ends of a kDouble row's interval.
enum class Ends { kClosed, kOpenMin, kOpenMax };

/// One meaning of one flag. --threshold and --seed each have one row per
/// meaning, for disjoint subcommands.
struct Flag {
  const char* name;
  Kind kind;
  unsigned commands;  // the Command bits whose code reads the flag
  const char* def;    // as typed; nullptr when `help` says what unset means
  const char* help;
  const char* syntax = nullptr;  // kChoice: "a | b"; kString: value shape
  Status (*check)(const std::string& value) = nullptr;  // kString parser
  uint64_t min_uint = 0, max_uint = 0;
  double min_double = 0, max_double = 0;
  Ends ends = Ends::kClosed;
};

/// std::chrono durations count in signed 64-bit integers.
constexpr uint64_t kMaxChrono = std::numeric_limits<int64_t>::max();
/// Millisecond flags the CLI multiplies into microseconds.
constexpr uint64_t kMaxMsAsUs = UINT64_MAX / 1000;
/// --threads and --parse-workers: each worker is a std::thread, and
/// creating too many throws out of main.
constexpr uint64_t kMaxThreads = 256;
constexpr double kMaxDouble = std::numeric_limits<double>::max();

constexpr Flag Uint(const char* name, unsigned commands, const char* def,
                    uint64_t min, uint64_t max, const char* help) {
  return {name, Kind::kUint, commands, def, help, nullptr, nullptr, min, max};
}
constexpr Flag Real(const char* name, unsigned commands, const char* def,
                    double min, double max, Ends ends, const char* help) {
  Flag f{name, Kind::kDouble, commands, def, help};
  f.min_double = min;
  f.max_double = max;
  f.ends = ends;
  return f;
}
constexpr Flag Choice(const char* name, unsigned commands, const char* def,
                      const char* choices, const char* help) {
  return {name, Kind::kChoice, commands, def, help, choices};
}
constexpr Flag Text(const char* name, unsigned commands, const char* def,
                    const char* syntax, const char* help,
                    Status (*check)(const std::string&) = nullptr) {
  return {name, Kind::kString, commands, def, help, syntax, check};
}

Status CheckLogLevel(const std::string& name) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  if (name.empty() || obs::ParseLogLevel(name, level)) return Status::OK();
  return Status::InvalidArgument("unknown log level");
}

/// Arming is the parse: the registry owns the spec grammar. The reset
/// keeps only the last of repeated --failpoints flags.
Status ArmFailpoints(const std::string& spec) {
  FailPointRegistry::Global().Reset();
  if (spec.empty()) return Status::OK();
  if (!failpoints::Enabled()) return Status::Unimplemented("not compiled in");
  return FailPointRegistry::Global().ArmFromSpec(spec);
}

constexpr Flag kFlags[] = {
    Text("trace", kAll, nullptr, "path[,path...]",
         "input trace CSV; comma-separated paths are read as one stream"),
    Text("netflow", kAll, nullptr, "path", "input NetFlow v5 export"),
    Uint("protocol", kAll, "6", 0, 255,
         "IP protocol kept from --netflow records (6 = TCP, 0 = all)"),
    Uint("parse-workers", kAll, "1", 0, kMaxThreads,
         "parse workers (0 = 1); output is the same at any N"),
    // Chunk buffers and queue slots are allocated up front; keep them small.
    Uint("io-chunk-kb", kAll, "256", 1, 1 << 20, "ingest chunk size in KiB"),
    Uint("ingest-queue", kAll, "8", 1, 1 << 16,
         "capacity of the queues between ingest stages, in chunks/batches"),
    Choice("on-error", kAll, "fail", "fail | skip | quarantine",
           "what a reader does with a malformed record"),
    Uint("error-budget", kAll, "100000", 0, UINT64_MAX,
         "skip/quarantine still abort after N rejects per file (0 = no cap)"),
    Uint("max-total-errors", kAll, "0", 0, UINT64_MAX,
         "abort after N rejects across all input files (0 = off)"),
    Text("quarantine-out", kAll, nullptr, "path", "dead-letter CSV of rejects"),
    Uint("window-length", kWorkspace | kFaultcheck | kTimeline, "86400", 1,
         UINT64_MAX, "window length in trace time units"),
    Real("decay", kWorkspace, "0", 0, 1, Ends::kOpenMax,
         "window t becomes C'_t = decay*C'_{t-1} + C_t (0 = off)"),
    Uint("threads", kWorkspace, "1", 1, kMaxThreads, "signature threads"),
    // RWR extraction reserves k entries per node.
    Uint("k", kAll, "10", 1, 1 << 20, "signature length"),
    Text("scheme", kWorkspace | kTimeline, "tt",
         "tt | ut | ut-tfidf | rwr(c=..,h=..) | rwr-push(c=..,eps=..)",
         "signature scheme",
         [](const std::string& v) { return CreateScheme(v, {}).status(); }),
    Choice("dist", kTwoWindows | kMultiusage | kTimeline, "shel",
           "jac | dice | sdice | shel | cos | overlap", "signature distance"),
    Uint("window", kWorkspace, "0", 0, UINT64_MAX, "window index"),
    Uint("window2", kTwoWindows, "1", 0, UINT64_MAX, "second window index"),
    Real("threshold", kMultiusage, "0.5", 0, 1, Ends::kClosed,
         "report pairs at distance <= this"),
    Uint("max-pairs", kMultiusage, "50", 0, UINT64_MAX,
         "report at most N pairs, closest first (0 = all)"),
    Real("threshold", kAnomalies, "2.0", 0, kMaxDouble, Ends::kClosed,
         "report persistence at least this many sigma below the mean"),
    Uint("ell", kMasquerade, "3", 1, UINT64_MAX,
         "Algorithm 1's l: rank depth searched for a node's new label"),
    Real("delta-divisor", kMasquerade, "5.0", 0, kMaxDouble, Ends::kOpenMin,
         "Algorithm 1's c: delta = mean self-persistence / c"),
    Uint("checkpoint-every", kSupervised, "10000", 0, UINT64_MAX,
         "checkpoint and flush telemetry every N events (0 = never)"),
    Uint("emit-every", kSupervised, "0", 0, UINT64_MAX,
         "also extract all focal signatures every N events (0 = off)"),
    Real("replay-rate", kSupervised, "0", 0, kMaxDouble, Ends::kClosed,
         "replay trace time at X times wall-clock, 1 = real time (0 = off)"),
    Uint("degrade-escalate-after", kSupervised, "3", 1, UINT32_MAX,
         "consecutive bad epochs that step the degradation ladder up"),
    Uint("degrade-recover-after", kSupervised, "8", 1, UINT32_MAX,
         "consecutive healthy epochs that step it back down"),
    Uint("degrade-checkpoint-stretch", kSupervised, "4", 1, UINT64_MAX,
         "checkpoint-cadence multiplier at the widen_checkpoints tier"),
    Text("checkpoint-dir", kStream, nullptr, "dir",
         "durable checkpoint directory (enables restore)"),
    Uint("kill-after", kStream, "0", 0, UINT64_MAX,
         "exit 3 after N events this run, a crash-test hook (0 = off)"),
    Uint("seed", kStream, "49374", 0, UINT64_MAX, "sketch seed (0xc0de)"),
    Uint("trials", kChaoscheck, "3", 0, UINT64_MAX,
         "kill/fault schedules to run"),
    Uint("seed", kChaoscheck, "1", 1, UINT64_MAX,
         "schedule seed; when given, also the sketch seed"),
    Text("chaos-dir", kChaoscheck, nullptr, "dir",
         "checkpoint scratch dir (unset = a temp dir removed on success)"),
    Uint("stride", kTimeline, nullptr, 1, UINT64_MAX,
         "start spacing in time units, <= --window-length (unset = tumbling)"),
    Choice("mode", kTimeline, "incremental", "incremental | scratch",
           "recompute only dirty focal nodes, or every window from scratch"),
    Uint("max-lag", kTimeline, "5", 0, UINT64_MAX,
         "deepest lag in the persistence-by-lag table (0 = no table)"),
    Real("fraction", kFaultcheck, "0.01", 0, 1, Ends::kClosed,
         "per-fault-type injection probability"),
    Uint("seed", kFaultcheck, "1", 0, UINT64_MAX, "fault injector seed"),
    Real("max-drift", kFaultcheck, "0.25", 0, 1, Ends::kClosed,
         "exit 1 if a scheme's mean Jaccard drift exceeds this"),
    Uint("retry-max-attempts", kAll, "4", 1, UINT32_MAX,
         "tries per retryable IO: checkpoint, telemetry, log and input opens"),
    Uint("retry-initial-ms", kAll, "5", 0, UINT64_MAX, "first backoff, in ms"),
    // The jittered backoff reaches twice this, rounded up as a double, and
    // must still fit a millisecond sleep.
    Uint("retry-max-ms", kAll, "200", 0, kMaxChrono / 4,
         "ceiling on one backoff, in ms"),
    Real("retry-multiplier", kAll, "2.0", 1, kMaxDouble, Ends::kClosed,
         "backoff growth factor"),
    Real("retry-jitter", kAll, "0.25", 0, 1, Ends::kClosed,
         "uniform jitter as a fraction of each backoff"),
    Uint("retry-deadline-ms", kAll, "0", 0, kMaxChrono,
         "total backoff budget per operation, in ms (0 = off)"),
    Text("failpoints", kAll, nullptr, "site=kind[@after][xcount][;...]",
         "arm IO fail-points (needs a COMMSIG_FAILPOINTS build)",
         ArmFailpoints),
    Text("log-level", kAll, nullptr, "debug | info | warn | error",
         "log threshold (unset = $COMMSIG_LOG, else info)", CheckLogLevel),
    Text("log-file", kAll, nullptr, "path", "append JSON log lines here too"),
    Text("metrics-out", kAll, nullptr, "path",
         "metrics JSON, written at exit and at stream checkpoints"),
    Text("trace-out", kAll, nullptr, "path",
         "Chrome trace_event JSON of the spans, written like --metrics-out"),
    Uint("window-budget-ms", kAll, "0", 0, kMaxMsAsUs,
         "warn when one window advance takes over N ms; in stream, an "
         "epoch over it also counts toward the degradation ladder (0 = off)"),
    Uint("stats-port", kAll, nullptr, 0, 65535,
         "serve /metrics etc. on 127.0.0.1:N (unset = off, 0 = any port)"),
    Uint("stats-stall-ms", kAll, "30000", 0, kMaxMsAsUs,
         "/healthz fails once no window advanced for N ms (0 = liveness only)"),
    Uint("stats-linger-ms", kAll, "0", 0, kMaxChrono,
         "keep the stats server up N ms after the command finishes"),
};

/// The kind and bounds of `f` as the usage text and errors show them.
std::string Bounds(const Flag& f) {
  char buf[80];
  switch (f.kind) {
    case Kind::kUint:
      return "integer in [" + std::to_string(f.min_uint) + ", " +
             std::to_string(f.max_uint) + "]";
    case Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "number in %c%.17g, %.17g%c",
                    f.ends == Ends::kOpenMin ? '(' : '[', f.min_double,
                    f.max_double, f.ends == Ends::kOpenMax ? ')' : ']');
      return buf;
    case Kind::kChoice:
      return std::string("one of ") + f.syntax;
    default:
      return f.syntax;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: commsig <command> (--trace PATHS | --netflow PATH) "
               "[--<flag> <value>]...\n\ncommands:\n");
  for (const CommandInfo& c : kCommands) {
    std::fprintf(stderr, "  %-11s %s\n", c.name, c.help);
  }
  std::fprintf(stderr,
               "\nflags (--name  kind and bounds  default  for the commands "
               "that read it):\n");
  for (const Flag& f : kFlags) {
    std::string commands = f.commands == kAll ? "all" : "";
    for (const CommandInfo& c : kCommands) {
      if (f.commands == kAll || (f.commands & c.command) == 0) continue;
      if (!commands.empty()) commands += ',';
      commands += c.name;
    }
    std::fprintf(stderr, "  --%s  %s  default %s  for %s\n      %s\n", f.name,
                 Bounds(f).c_str(), f.def != nullptr ? f.def : "none",
                 commands.c_str(), f.help);
  }
  return 2;
}

/// Whole-token parse of a base-10 unsigned integer (strtoull alone wraps
/// "-1") or of a finite double.
template <typename T>
bool ParseNumber(const std::string& s, T& out) {
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_same_v<T, uint64_t>) {
    out = std::strtoull(s.c_str(), &end, 10);
    if (s.find('-') != std::string::npos) return false;
  } else {
    out = std::strtod(s.c_str(), &end);
  }
  return !s.empty() && end == s.c_str() + s.size() && errno != ERANGE &&
         std::isfinite(static_cast<double>(out));
}

/// Empty when `v` is a valid value of `f`, else what a valid value is.
std::string Expected(const Flag& f, const std::string& v) {
  uint64_t u = 0;
  double d = 0;
  switch (f.kind) {
    case Kind::kUint:
      if (ParseNumber(v, u) && u >= f.min_uint && u <= f.max_uint) return "";
      return "an " + Bounds(f);
    case Kind::kDouble:
      if (ParseNumber(v, d) &&
          (f.ends == Ends::kOpenMin ? d > f.min_double : d >= f.min_double) &&
          (f.ends == Ends::kOpenMax ? d < f.max_double : d <= f.max_double)) {
        return "";
      }
      return "a finite " + Bounds(f);
    case Kind::kChoice:
      for (std::string_view rest = f.syntax; !rest.empty();) {
        const size_t bar = std::min(rest.find(" | "), rest.size());
        if (rest.substr(0, bar) == v) return "";
        rest.remove_prefix(std::min(bar + 3, rest.size()));
      }
      return f.syntax;
    case Kind::kString:
      break;
  }
  const Status s = f.check != nullptr ? f.check(v) : Status::OK();
  return s.ok() ? "" : std::string(f.syntax) + "; " + s.ToString();
}

/// The subcommand and its flag values, checked against kFlags. Reading a
/// flag the subcommand's row does not list is a programming error.
class Args {
 public:
  explicit Args(const CommandInfo& command) : command_(command) {}

  /// Reads argv[2..] as `--name value` pairs, left to right. Returns false
  /// after printing the first unknown name, name this subcommand does not
  /// read, missing value, or value outside its row's kind and bounds. A
  /// repeated flag keeps its last value.
  bool Parse(int argc, char** argv) {
    auto fail = [](const std::string& message) {
      std::fputs((message + "\n").c_str(), stderr);
      return false;
    };
    for (int i = 2; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0) return fail("expected a --flag: " + flag);
      const std::string name = flag.substr(2);
      const Flag* row = Find(name);
      if (row == nullptr) {
        bool known = false;
        for (const Flag& f : kFlags) known = known || name == f.name;
        if (!known) return fail("unknown flag " + flag + " (commsig --help)");
        return fail("flag " + flag + " does not apply to " + command_.name);
      }
      if (i + 1 == argc) return fail("missing value for " + flag);
      const std::string value = argv[i + 1];
      const std::string expected = Expected(*row, value);
      if (!expected.empty()) {
        return fail("invalid value for " + flag + ": '" + value +
                    "' (expected " + expected + ")");
      }
      values_[name] = value;
    }
    return true;
  }

  Command command() const { return command_.command; }
  bool Given(const std::string& name) const { return values_.count(name) > 0; }
  /// The given value, else the row's default, else "".
  std::string Str(const std::string& name) const {
    const Flag* row = Find(name);
    COMMSIG_CHECK(row != nullptr, command_.name + (" ignores --" + name));
    auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    return row->def != nullptr ? row->def : "";
  }
  uint64_t Uint(const std::string& key) const { return Number<uint64_t>(key); }
  double Double(const std::string& key) const { return Number<double>(key); }

 private:
  /// The row of `name` that this subcommand reads, or nullptr.
  const Flag* Find(const std::string& name) const {
    for (const Flag& f : kFlags) {
      if (name == f.name && (f.commands & command_.command) != 0) return &f;
    }
    return nullptr;
  }
  template <typename T>
  T Number(const std::string& name) const {
    T v = 0;
    COMMSIG_CHECK(ParseNumber(Str(name), v), "--" + name + " is unset");
    return v;
  }

  const CommandInfo& command_;
  std::map<std::string, std::string> values_;
};

/// The error policy (and its log/budget pointers) rides along so the
/// pipeline's merge stage applies it in exact stream order.
ingest::PipelineOptions PipelineFromArgs(const Args& args,
                                         RecordErrorLog* log) {
  ingest::PipelineOptions opts;
  opts.parse_workers = static_cast<int>(args.Uint("parse-workers"));
  opts.chunk_bytes = static_cast<size_t>(args.Uint("io-chunk-kb")) * 1024;
  opts.queue_capacity = args.Uint("ingest-queue");
  const std::string policy = args.Str("on-error");
  opts.ingest.policy = policy == "skip"         ? ErrorPolicy::kSkip
                       : policy == "quarantine" ? ErrorPolicy::kQuarantine
                                                : ErrorPolicy::kFail;
  opts.ingest.max_errors = args.Uint("error-budget");
  opts.ingest.error_log = log;
  return opts;
}

RetryPolicy RetryFromArgs(const Args& args) {
  return {
      .max_attempts = static_cast<uint32_t>(args.Uint("retry-max-attempts")),
      .initial_backoff_ms = args.Uint("retry-initial-ms"),
      .multiplier = args.Double("retry-multiplier"),
      .max_backoff_ms = args.Uint("retry-max-ms"),
      .jitter = args.Double("retry-jitter"),
      .deadline_ms = args.Uint("retry-deadline-ms")};
}

/// `spec` at signature length `k`. It cannot fail: Args::Parse checked
/// --scheme, and faultcheck's specs are fixed.
std::unique_ptr<SignatureScheme> MakeScheme(const std::string& spec, size_t k) {
  SchemeOptions opts;
  opts.k = k;
  auto scheme = CreateScheme(spec, opts);
  COMMSIG_CHECK(scheme.ok(), scheme.status().ToString());
  return std::move(*scheme);
}

std::unique_ptr<SignatureScheme> SchemeFor(const Args& args) {
  return MakeScheme(args.Str("scheme"), args.Uint("k"));
}

SignatureDistance DistFor(const Args& args) {
  auto kind = ParseDistanceName(args.Str("dist"));
  COMMSIG_CHECK(kind.ok(), kind.status().ToString());
  return SignatureDistance(*kind);
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
  const std::string trace_path = args.Str("trace");
  const std::string netflow_path = args.Str("netflow");
  RecordErrorLog error_log;
  ingest::PipelineOptions options = PipelineFromArgs(args, &error_log);
  const bool netflow = !netflow_path.empty();
  const ingest::PipelineFormat format =
      netflow ? ingest::PipelineFormat::kNetflowV5
              : ingest::PipelineFormat::kTraceCsv;
  options.netflow.protocol_filter = static_cast<uint8_t>(args.Uint("protocol"));
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
  global_budget.max_total_errors = args.Uint("max-total-errors");
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
  const std::string quarantine_out = args.Str("quarantine-out");
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

/// Nodes with outgoing traffic in any of `windows`.
std::vector<NodeId> FocalFromWindows(size_t num_nodes,
                                     std::span<const CommGraph> windows) {
  std::vector<bool> has_out(num_nodes, false);
  for (const auto& g : windows) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.OutDegree(v) > 0) has_out[v] = true;
    }
  }
  std::vector<NodeId> focal;
  for (NodeId v = 0; v < has_out.size(); ++v) {
    if (has_out[v]) focal.push_back(v);
  }
  return focal;
}

/// Everything loaded from the trace that the subcommands share, and the
/// --scheme signatures of --window (s0) and --window2 (s1).
struct Workspace {
  Interner interner;
  std::vector<CommGraph> windows;
  std::vector<NodeId> focal;  // nodes with outgoing traffic in any window
  std::unique_ptr<ThreadPool> pool = std::make_unique<ThreadPool>(1);
  std::unique_ptr<SignatureScheme> scheme;
  size_t w0 = 0, w1 = 0;
  std::vector<Signature> s0, s1;

  /// False, after logging, when a window the subcommand reads is missing.
  bool ComputeSignatures(const Args& args) {
    const bool two = (args.command() & kTwoWindows) != 0;
    w0 = args.Uint("window");
    w1 = two ? args.Uint("window2") : w0;
    for (size_t w : {w0, w1}) {
      if (w >= windows.size()) {
        obs::LogError("window_out_of_range")
            .U64("window", w)
            .U64("windows", windows.size());
        return false;
      }
    }
    scheme = SchemeFor(args);
    s0 = ComputeAllParallel(*scheme, windows[w0], focal, *pool);
    if (two) s1 = ComputeAllParallel(*scheme, windows[w1], focal, *pool);
    return true;
  }
};

bool Load(const Args& args, Workspace& ws) {
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, ws.interner, events)) return false;
  TraceWindower windower(ws.interner.size(), args.Uint("window-length"));
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
  const double theta = args.Double("decay");
  if (theta > 0.0) {
    DecayedGraphAccumulator acc(ws.interner.size(), theta);
    std::vector<CommGraph> decayed;
    decayed.reserve(ws.windows.size());
    for (const CommGraph& g : ws.windows) {
      acc.AddWindow(g);
      decayed.push_back(acc.Current());
    }
    ws.windows = std::move(decayed);
  }
  ws.focal = FocalFromWindows(ws.interner.size(), ws.windows);
  const size_t threads = args.Uint("threads");
  if (threads > 1) ws.pool = std::make_unique<ThreadPool>(threads);
  obs::LogInfo("trace_loaded")
      .U64("events", events.size())
      .U64("nodes", ws.interner.size())
      .U64("windows", ws.windows.size())
      .U64("focal_nodes", ws.focal.size());
  return true;
}

int RunSignatures(const Workspace& ws) {
  for (size_t i = 0; i < ws.focal.size(); ++i) {
    if (ws.s0[i].empty()) continue;
    std::printf("%s\t%s\n", ws.interner.LabelOf(ws.focal[i]).c_str(),
                ws.s0[i].ToString(ws.interner).c_str());
  }
  return 0;
}

int RunSelfMatch(const Args& args, const Workspace& ws) {
  const SignatureDistance d = DistFor(args);
  auto rocs = SelfMatchRoc(ws.s0, ws.s1, d);
  PropertyEllipse e = SummarizeProperties(ws.s0, ws.s1, d, 50000);
  std::printf("scheme=%s dist=%s windows=%zu->%zu\n", ws.scheme->name().c_str(),
              std::string(d.name()).c_str(), ws.w0, ws.w1);
  std::printf("self-match AUC  %.4f\n", MeanAuc(rocs));
  std::printf("persistence     %.4f +- %.4f\n", e.mean_persistence,
              e.std_persistence);
  std::printf("uniqueness      %.4f +- %.4f\n", e.mean_uniqueness,
              e.std_uniqueness);
  return 0;
}

int RunMultiusage(const Args& args, const Workspace& ws) {
  MultiusageDetector detector(DistFor(args),
                              {.threshold = args.Double("threshold"),
                               .max_pairs = args.Uint("max-pairs")});
  auto pairs = detector.Detect(ws.focal, ws.s0);
  std::printf("%zu candidate alias pair(s)\n", pairs.size());
  for (const auto& p : pairs) {
    std::printf("%.4f\t%s\t%s\n", p.distance,
                ws.interner.LabelOf(p.a).c_str(),
                ws.interner.LabelOf(p.b).c_str());
  }
  return 0;
}

int RunMasquerade(const Args& args, const Workspace& ws) {
  MasqueradeDetector detector(
      DistFor(args), {.top_ell = args.Uint("ell"),
                      .delta_divisor = args.Double("delta-divisor")});
  auto detection = detector.Detect(ws.focal, ws.s0, ws.s1);
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

int RunAnomalies(const Args& args, const Workspace& ws) {
  auto anomalies = DetectAnomalies(ws.focal, ws.s0, ws.s1, DistFor(args),
                                   args.Double("threshold"));
  std::printf("%zu anomalies between windows %zu and %zu\n",
              anomalies.size(), ws.w0, ws.w1);
  for (const Anomaly& a : anomalies) {
    std::printf("%s\tpersistence=%.4f\t%.1f sigma below mean\n",
                ws.interner.LabelOf(a.node).c_str(), a.persistence,
                a.deviations_below_mean);
  }
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
  const std::string metrics_out = args.Str("metrics-out");
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
  const std::string trace_out = args.Str("trace-out");
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

/// The `stream` output: one TT and one UT signature line per focal node.
std::string StreamOutput(const StreamSupervisor& supervisor,
                         const Interner& interner, size_t k) {
  std::string out;
  for (NodeId v : supervisor.focal()) {
    const std::string& label = interner.LabelOf(v);
    out += label + "\ttt\t" +
           supervisor.builder()->TopTalkers(v, k).ToString(interner) + "\n";
    out += label + "\tut\t" +
           supervisor.builder()->UnexpectedTalkers(v, k).ToString(interner) +
           "\n";
  }
  return out;
}

/// The supervisor configuration `stream` and `chaoscheck` share; each
/// sets its own checkpoint directory and kill point.
StreamSupervisor::Options SupervisorFromArgs(const Args& args) {
  StreamSupervisor::Options opts;
  opts.k = args.Uint("k");
  opts.checkpoint_every = args.Uint("checkpoint-every");
  opts.emit_every = args.Uint("emit-every");
  opts.replay_rate = args.Double("replay-rate");
  opts.epoch_budget_us = args.Uint("window-budget-ms") * 1000;
  opts.retry = RetryFromArgs(args);
  opts.degrade.escalate_after =
      static_cast<uint32_t>(args.Uint("degrade-escalate-after"));
  opts.degrade.recover_after =
      static_cast<uint32_t>(args.Uint("degrade-recover-after"));
  opts.degrade.checkpoint_stretch = args.Uint("degrade-checkpoint-stretch");
  // stream's --seed defaults to the builder's own seed; chaoscheck's seeds
  // the sketches only when given.
  if (args.Given("seed")) opts.builder.seed = args.Uint("seed");
  opts.manage_tracing = true;
  if (!args.Str("metrics-out").empty() || !args.Str("trace-out").empty()) {
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
  StreamSupervisor::Options opts = SupervisorFromArgs(args);
  opts.checkpoint_dir = args.Str("checkpoint-dir");
  opts.kill_after = args.Uint("kill-after");
  StreamSupervisor supervisor(FocalFromEvents(interner, events),
                              std::move(opts));
  StreamRunReport report = supervisor.Run(events);

  obs::LogInfo("stream_supervisor_report")
      .U64("start_event", report.start_event)
      .U64("events_processed", report.events_processed)
      .U64("checkpoints_saved", report.checkpoints_saved)
      .U64("checkpoint_save_failures", report.checkpoint_save_failures)
      .U64("io_retries", report.io_retries)
      .Str("final_tier", DegradationTierName(report.final_tier))
      .Bool("restored", report.restored_from_checkpoint)
      .Bool("fallback_restore", report.restored_from_fallback);
  if (report.killed) return 3;
  std::fputs(StreamOutput(supervisor, interner, args.Uint("k")).c_str(),
             stdout);
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
  const size_t k = args.Uint("k");
  const uint64_t trials = args.Uint("trials");
  const uint64_t seed = args.Uint("seed");
  const std::vector<NodeId> focal = FocalFromEvents(interner, events);

  namespace fs = std::filesystem;
  std::string chaos_dir = args.Str("chaos-dir");
  const bool own_dir = chaos_dir.empty();
  if (own_dir) {
    chaos_dir = (fs::temp_directory_path() /
                 ("commsig_chaos_" + std::to_string(::getpid())))
                    .string();
  }

  // Reference: one fault-free supervised run. Everything after it must
  // converge to these exact signature bytes.
  FailPointRegistry::Global().Reset();
  std::string reference;
  {
    StreamSupervisor ref(focal, SupervisorFromArgs(args));
    ref.Run(events);
    reference = StreamOutput(ref, interner, k);
  }

  Rng rng(seed);
  int rc = 0;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    std::error_code ec;
    fs::remove_all(chaos_dir, ec);
    uint64_t position = 0;
    uint64_t segments = 0;
    uint64_t fallback_restores = 0;
    bool pass = true;

    // Keep killing and restarting until a segment runs to completion; each
    // segment gets a fresh supervisor (a new process, morally) plus one
    // randomly drawn fault scenario.
    while (true) {
      const ChaosScenario& scenario =
          kChaosScenarios[rng.UniformInt(std::size(kChaosScenarios))];
      const Status armed = ArmFailpoints(scenario.spec);
      COMMSIG_CHECK(armed.ok(), armed.ToString());
      const uint64_t remaining = events.size() - position;
      // Kill somewhere inside the remaining stream on most segments; a
      // draw past the end lets the segment complete.
      const uint64_t kill_after =
          1 + rng.UniformInt(remaining + remaining / 2 + 1);

      StreamSupervisor::Options opts = SupervisorFromArgs(args);
      opts.checkpoint_dir = chaos_dir;
      opts.kill_after = kill_after;
      StreamSupervisor supervisor(focal, std::move(opts));
      const StreamRunReport report = supervisor.Run(events);
      ++segments;
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
        pass = StreamOutput(supervisor, interner, k) == reference;
        break;
      }
    }

    if (!pass) rc = 1;
    const char* verdict = pass ? "pass" : "diverged";
    std::printf("trial %" PRIu64 ": %s  segments=%" PRIu64
                " fallback_restores=%" PRIu64 "\n",
                trial, verdict, segments, fallback_restores);
    obs::LogInfo("chaos_trial_done")
        .U64("trial", trial)
        .Str("verdict", verdict)
        .U64("segments", segments);
  }

  if (own_dir) {
    std::error_code ec;
    fs::remove_all(chaos_dir, ec);
  }
  std::printf("chaoscheck: %s (%" PRIu64 " trial(s), seed %" PRIu64 ")\n",
              rc == 0 ? "PASS" : "FAIL", trials, seed);
  return rc;
}

int RunFaultcheck(const Args& args) {
  Interner interner;
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, interner, events)) return 1;
  const double fraction = args.Double("fraction");
  const double max_drift = args.Double("max-drift");
  const size_t k = args.Uint("k");

  FaultInjector injector({.seed = args.Uint("seed"),
                          .p_drop = fraction,
                          .p_duplicate = fraction,
                          .p_corrupt_weight = fraction,
                          .p_corrupt_time = fraction,
                          .p_swap = fraction});
  std::vector<TraceEvent> perturbed = injector.PerturbEvents(events);
  obs::LogInfo("faults_injected")
      .Str("report", injector.report().ToString());

  TraceWindower windower(interner.size(), args.Uint("window-length"));
  std::vector<CommGraph> clean = windower.Split(events);
  std::vector<CommGraph> dirty = windower.Split(perturbed);
  if (clean.empty() || dirty.empty()) {
    obs::LogError("no_windows").Str("detail", "trace produced no windows");
    return 1;
  }
  const CommGraph& g0 = clean[0];
  const CommGraph& g1 = dirty[0];
  const std::vector<NodeId> focal =
      FocalFromWindows(interner.size(), std::span(clean).first(1));

  SignatureDistance jaccard(DistanceKind::kJaccard);
  int rc = 0;
  for (const char* spec : {"tt", "ut", "rwr(c=0.1,h=3)", "rwr(c=0.1)"}) {
    const auto scheme = MakeScheme(spec, k);
    const std::vector<Signature> before = scheme->ComputeAll(g0, focal);
    const std::vector<Signature> after = scheme->ComputeAll(g1, focal);
    double sum = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < focal.size(); ++i) {
      if (before[i].empty() && after[i].empty()) continue;
      sum += jaccard(before[i], after[i]);
      ++n;
    }
    const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
    std::printf("%-16s mean Dist_Jac drift over %zu focal node(s): %.4f\n",
                scheme->name().c_str(), n, mean);
    if (mean > max_drift) {
      std::printf("%-16s drift %.4f exceeds --max-drift %.4f\n",
                  scheme->name().c_str(), mean, max_drift);
      rc = 1;
    }
  }
  return rc;
}

int RunTimeline(const Args& args) {
  Interner interner;
  std::vector<TraceEvent> events;
  if (!LoadEvents(args, interner, events)) return 1;
  const uint64_t window_length = args.Uint("window-length");
  const uint64_t stride =
      args.Given("stride") ? args.Uint("stride") : window_length;
  TraceWindower windower(interner.size(), window_length);
  const uint64_t split_begin_us = NowMicros();
  std::vector<CommGraph> windows = windower.SplitSliding(events, stride);
  obs::WindowStatsAggregator::Global().RecordSetupStage(
      obs::PipelineStage::kWindowBuild, NowMicros() - split_begin_us);
  if (windows.empty()) {
    obs::LogError("no_windows").Str("detail", "trace produced no windows");
    return 1;
  }
  const std::vector<NodeId> focal =
      FocalFromWindows(interner.size(), windows);

  auto scheme = SchemeFor(args);
  const SignatureDistance d = DistFor(args);
  SignatureTimelineOptions topts;
  const std::string mode = args.Str("mode");
  topts.incremental = mode == "incremental";

  auto per_window = ComputeSignatureTimeline(*scheme, windows, focal, topts);
  const double overlap =
      1.0 - static_cast<double>(stride) / static_cast<double>(window_length);
  std::printf("scheme=%s dist=%s windows=%zu stride=%llu overlap=%.2f "
              "mode=%s focal=%zu\n",
              scheme->name().c_str(), std::string(d.name()).c_str(),
              windows.size(), static_cast<unsigned long long>(stride),
              overlap, mode.c_str(), focal.size());

  const uint64_t persist_begin_us = NowMicros();
  for (const TransitionStats& t : PersistencePerTransition(per_window, d)) {
    std::printf("transition %zu->%zu  persistence %.4f +- %.4f\n",
                t.from_window, t.from_window + 1, t.mean_persistence,
                t.std_persistence);
  }
  for (const LagStats& l :
       PersistenceByLag(per_window, d, args.Uint("max-lag"))) {
    std::printf("lag %zu  persistence %.4f +- %.4f  (%zu pair(s))\n", l.lag,
                l.mean_persistence, l.std_persistence, l.samples);
  }
  // The per-window advances were attributed inside the engine; the
  // cross-window persistence scan is a one-shot distance/extract stage.
  obs::WindowStatsAggregator::Global().RecordSetupStage(
      obs::PipelineStage::kExtract, NowMicros() - persist_begin_us);
  return 0;
}

/// Applies the logging flags before anything can emit a structured line.
/// Returns false (after a raw-stderr diagnostic) when the log file cannot
/// be opened.
bool ConfigureLogging(const Args& args) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  if (obs::ParseLogLevel(args.Str("log-level"), level)) {
    obs::LogSink::Global().SetMinLevel(level);
  }
  const std::string log_file = args.Str("log-file");
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
  const CommandInfo* command = nullptr;
  for (const CommandInfo& c : kCommands) {
    if (argc >= 2 && std::strcmp(argv[1], c.name) == 0) command = &c;
  }
  if (command == nullptr) return Usage();
  Args args(*command);
  if (!args.Parse(argc, argv)) return 2;
  // The two relations between flags that no single row can state.
  if (args.Str("trace").empty() == args.Str("netflow").empty()) {
    obs::LogError("bad_flags")
        .Str("error", "exactly one of --trace / --netflow is required");
    return 2;
  }
  if (args.command() == kTimeline && args.Given("stride") &&
      args.Uint("stride") > args.Uint("window-length")) {
    obs::LogError("bad_flags")
        .Str("detail", "--stride must be in [1, --window-length]");
    return 2;
  }

  if (!ConfigureLogging(args)) return 1;

  // Stable snapshot keys even for paths this run never exercises.
  obs::PreRegisterCoreMetrics();
  if (!args.Str("trace-out").empty()) {
    obs::TraceCollector::Global().SetEnabled(true);
  }
  const uint64_t budget_ms = args.Uint("window-budget-ms");
  if (budget_ms > 0) {
    obs::WindowStatsAggregator::Global().SetLatencyBudgetUs(budget_ms * 1000);
  }

  // The introspection plane: serves /metrics, /varz, /healthz, /tracez and
  // /pipelinez for the lifetime of the command (plus an optional linger so
  // short runs stay probeable).
  std::unique_ptr<obs::StatsServer> stats_server;
  if (args.Given("stats-port")) {
    obs::StatsServer::Options sopts;
    sopts.port = static_cast<uint16_t>(args.Uint("stats-port"));
    sopts.stall_threshold_us = args.Uint("stats-stall-ms") * 1000;
    stats_server = std::make_unique<obs::StatsServer>(sopts);
    Status s = stats_server->Start();
    if (!s.ok()) {
      obs::LogError("stats_server_start_failed")
          .Str("status", s.ToString());
      return 1;
    }
  }

  int rc;
  const Command c = args.command();
  // stream, faultcheck, chaoscheck and timeline load their own events (they
  // need the raw stream or a sliding split, not the windowed Workspace).
  if ((c & kWorkspace) == 0) {
    rc = c == kStream       ? RunStream(args)
         : c == kFaultcheck ? RunFaultcheck(args)
         : c == kChaoscheck ? RunChaoscheck(args)
                            : RunTimeline(args);
  } else {
    Workspace ws;
    if (!Load(args, ws)) return 1;
    rc = !ws.ComputeSignatures(args) ? 1
         : c == kSignatures          ? RunSignatures(ws)
         : c == kSelfmatch           ? RunSelfMatch(args, ws)
         : c == kMultiusage          ? RunMultiusage(args, ws)
         : c == kMasquerade          ? RunMasquerade(args, ws)
                                     : RunAnomalies(args, ws);
  }

  // Final export failures are already logged inside; they don't override
  // the command's exit code.
  Status flushed = FlushTelemetry(args, /*final_export=*/true);
  (void)flushed;

  if (stats_server != nullptr) {
    const uint64_t linger_ms = args.Uint("stats-linger-ms");
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

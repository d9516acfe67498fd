// Sustained ingestion throughput: the staged pipeline at 1/2/4/8 parse
// workers vs a faithful copy of the pre-pipeline read path, on synthetic
// trace-CSV and NetFlow v5 corpora. Emits events/sec per reader variant and
// for the framing stage alone, plus the headline gauges
// `ingest/<fmt>_pipeline1_speedup` and `ingest/<fmt>_pipeline4_speedup`
// into BENCH_ingest.json — the numbers tools/bench_guard.py holds the
// ingestion layer accountable for (speedup floors via the default check,
// absolute events/sec floors via --floor-pair).
//
// The reference readers below (`ref` namespace) reproduce the pre-pipeline
// serial path byte for byte: getline + per-line std::string field splits,
// strtod/strtoull through a heap-copied buffer, and an
// unordered_map<string, NodeId> interner that copies every label on every
// lookup. They are kept here — not imported — precisely so the baseline
// cannot silently inherit later optimizations. An equivalence gate compares
// events, id assignment, and label order of every pipeline variant against
// them on the untimed warmup round, before anything is timed: a speedup
// over a wrong baseline is worthless.
//
// All variants re-read the input file each repetition with a fresh
// interner (interning is part of the measured cost); one untimed warmup
// pass primes the page cache so the numbers measure parsing, not disk.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "common/interner.h"
#include "data/netflow.h"
#include "ingest/chunker.h"
#include "ingest/pipeline.h"
#include "ingest/record_batch.h"
#include "obs/metrics.h"

namespace commsig::bench {
namespace {

constexpr size_t kTraceRows = 1200 * 1000;
constexpr size_t kFlowRecords = 900 * 1000;
constexpr int kReps = 3;

// ---------------------------------------------------------------------------
// Reference (pre-pipeline) readers. Faithful copies; do not "fix" them.
// ---------------------------------------------------------------------------

namespace ref {

/// The old unordered_map-backed interner: one heap string per label copy
/// and a node-based hash table probe per record field.
class Interner {
 public:
  NodeId Intern(std::string_view label) {
    auto it = index_.find(std::string(label));
    if (it != index_.end()) return it->second;
    NodeId id = static_cast<NodeId>(labels_.size());
    labels_.emplace_back(label);
    index_.emplace(labels_.back(), id);
    return id;
  }
  const std::string& LabelOf(NodeId id) const { return labels_[id]; }
  size_t size() const { return labels_.size(); }

 private:
  std::unordered_map<std::string, NodeId> index_;
  std::vector<std::string> labels_;
};

std::vector<std::string> SplitCsvLine(std::string_view line, char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = line.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      break;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("bad double: " + buf);
  }
  return value;
}

Result<uint64_t> ParseUint(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("bad integer: " + buf);
  }
  return static_cast<uint64_t>(value);
}

/// Pre-pipeline ReadTraceCsv: getline + SplitCsvLine string copies,
/// Result-returning field parses through a heap-copied buffer, validation
/// state per row, per-record Intern of heap-copied labels. Control flow
/// and per-row object lifetimes mirror the original; only the quarantine
/// call is replaced by a hard failure (the bench corpus is clean, so a
/// reject means the equivalence gate must abort anyway).
bool ReadTraceCsv(const std::string& path, Interner& interner,
                  std::vector<TraceEvent>& events) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::string line;
  std::vector<std::string> fields;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    fields = SplitCsvLine(line, ',');
    std::string detail;
    uint64_t time = 0;
    double weight = 0.0;
    bool bad = true;
    if (fields.size() != 4) {
      detail = "trace row needs 4 fields, got " +
               std::to_string(fields.size());
    } else if (fields[0].empty() || fields[1].empty()) {
      detail = "empty node label";
    } else if (Result<uint64_t> t = ParseUint(fields[2]); !t.ok()) {
      detail = std::string(t.status().message());
    } else if (Result<double> w = ParseDouble(fields[3]); !w.ok()) {
      detail = std::string(w.status().message());
    } else if (!std::isfinite(*w)) {
      detail = "weight " + fields[3];
    } else if (*w <= 0.0) {
      detail = "non-positive weight " + fields[3];
    } else {
      bad = false;
      time = *t;
      weight = *w;
    }
    if (bad) return false;
    events.push_back({interner.Intern(fields[0]), interner.Intern(fields[1]),
                      time, weight});
  }
  return true;
}

uint16_t ReadU16(const unsigned char* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}
uint32_t ReadU32(const unsigned char* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

std::string Ipv4ToString(uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
  return buf;
}

/// Pre-pipeline NetFlow path: whole-file buffer, packet walk, then a
/// second pass materializing one heap string per address per record.
bool ReadNetflow(const std::string& path, Interner& interner,
                 std::vector<TraceEvent>& events) {
  constexpr size_t kHeaderBytes = 24;
  constexpr size_t kRecordBytes = 48;
  constexpr size_t kMaxRecordsPerPacket = 30;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(data.data());
  const size_t size = data.size();

  struct Flow {
    uint32_t src_addr, dst_addr, octets, unix_secs;
  };
  std::vector<Flow> flows;
  size_t offset = 0;
  while (offset + kHeaderBytes <= size) {
    if (ReadU16(bytes + offset) != 5) return false;
    const uint16_t count = ReadU16(bytes + offset + 2);
    if (count == 0 || count > kMaxRecordsPerPacket) return false;
    const uint32_t unix_secs = ReadU32(bytes + offset + 8);
    const size_t body = offset + kHeaderBytes;
    if (body + count * kRecordBytes > size) return false;
    for (size_t i = 0; i < count; ++i) {
      const unsigned char* rec = bytes + body + i * kRecordBytes;
      flows.push_back(
          {ReadU32(rec), ReadU32(rec + 4), ReadU32(rec + 20), unix_secs});
    }
    offset = body + count * kRecordBytes;
  }
  if (offset != size) return false;

  events.reserve(flows.size());
  for (const Flow& f : flows) {
    const double weight = static_cast<double>(f.octets);
    if (weight <= 0.0) continue;
    events.push_back({interner.Intern(Ipv4ToString(f.src_addr)),
                      interner.Intern(Ipv4ToString(f.dst_addr)), f.unix_secs,
                      weight});
  }
  return true;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Corpus generation.
// ---------------------------------------------------------------------------

std::string MakeTraceCorpus(const std::filesystem::path& path) {
  std::mt19937_64 rng(0x19e57);
  std::string out;
  out.reserve(kTraceRows * 32);
  // Log-uniform label draws: a handful of chatty hosts/services dominate
  // with a long quiet tail, matching the heavy-tailed degree distributions
  // of real communication graphs (uniform draws would make every chunk
  // touch the whole node universe, which no production trace does). Labels
  // are FQDN-length like real host identities — long enough that they do
  // not fit std::string's small-string buffer, so the historical reader's
  // per-lookup std::string construction pays the heap traffic it always
  // paid on production traces.
  for (size_t i = 0; i < kTraceRows; ++i) {
    const uint64_t host = rng() % (1 + rng() % 20000);
    const uint64_t svc = rng() % (1 + rng() % 2500);
    out += "host-";
    out += std::to_string(host);
    out += ".rack";
    out += std::to_string(host % 40);
    out += ".dc2.example.net,svc-";
    out += std::to_string(svc);
    out += ".prod.internal";
    out += ',';
    out += std::to_string(1000 + i / 7);
    out += ',';
    out += std::to_string(1 + rng() % 900);
    out += '.';
    out += std::to_string(rng() % 100);
    out += '\n';
  }
  std::ofstream f(path, std::ios::binary);
  f << "# commsig-trace src,dst,time,weight\n" << out;
  f.close();
  return path.string();
}

std::string MakeNetflowCorpus(const std::filesystem::path& path) {
  std::mt19937_64 rng(7);
  std::vector<NetflowV5Record> records(kFlowRecords);
  for (size_t i = 0; i < kFlowRecords; ++i) {
    NetflowV5Record& r = records[i];
    // Same heavy-tailed shape as the trace corpus: busy exporters
    // dominate, a long tail of hosts appears rarely.
    r.src_addr = 0x0a000000u + static_cast<uint32_t>(rng() % (1 + rng() % 30000));
    r.dst_addr = 0xc0a80000u + static_cast<uint32_t>(rng() % (1 + rng() % 4000));
    r.packets = static_cast<uint32_t>(1 + rng() % 100);
    r.octets = static_cast<uint32_t>(64 + rng() % 100000);
    r.src_port = static_cast<uint16_t>(rng());
    r.dst_port = 443;
    r.protocol = 6;
    r.unix_secs = static_cast<uint32_t>(100000 + i / 30);
  }
  Status s = WriteNetflowV5File(records, path.string());
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", std::string(s.message()).c_str());
    std::exit(1);
  }
  return path.string();
}

// ---------------------------------------------------------------------------
// Timing harness.
// ---------------------------------------------------------------------------

struct RunResult {
  std::vector<TraceEvent> events;
  std::vector<std::string> labels;
  double best_sec = 0.0;
};

/// Runs one timed pass of `body(events_out, labels_out)`, folding the wall
/// time into `result.best_sec` (best-of) and keeping the run's output.
template <typename Body>
void TimeOnePass(Body&& body, bool timed, RunResult& result) {
  std::vector<TraceEvent> events;
  std::vector<std::string> labels;
  auto t0 = std::chrono::steady_clock::now();
  if (!body(events, labels)) {
    std::fprintf(stderr, "FATAL: reader variant failed\n");
    std::exit(1);
  }
  auto t1 = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(t1 - t0).count();
  if (timed && (result.best_sec == 0.0 || sec < result.best_sec)) {
    result.best_sec = sec;
  }
  result.events = std::move(events);
  result.labels = std::move(labels);
}

std::vector<std::string> CopyLabels(const Interner& interner) {
  std::vector<std::string> labels;
  labels.reserve(interner.size());
  for (NodeId id = 0; id < interner.size(); ++id) {
    labels.push_back(interner.LabelOf(id));
  }
  return labels;
}

std::vector<std::string> CopyLabels(const ref::Interner& interner) {
  std::vector<std::string> labels;
  labels.reserve(interner.size());
  for (NodeId id = 0; id < static_cast<NodeId>(interner.size()); ++id) {
    labels.push_back(interner.LabelOf(id));
  }
  return labels;
}

bool SameEvents(const std::vector<TraceEvent>& a,
                const std::vector<TraceEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].src != b[i].src || a[i].dst != b[i].dst ||
        a[i].time != b[i].time || a[i].weight != b[i].weight) {
      return false;
    }
  }
  return true;
}

void RequireEquivalent(const RunResult& baseline, const RunResult& candidate,
                       const char* what) {
  if (!SameEvents(baseline.events, candidate.events) ||
      baseline.labels != candidate.labels) {
    std::fprintf(stderr,
                 "FATAL: %s output differs from the reference reader "
                 "(%zu vs %zu events, %zu vs %zu labels)\n",
                 what, candidate.events.size(), baseline.events.size(),
                 candidate.labels.size(), baseline.labels.size());
    std::exit(1);
  }
}

/// Framing-stage-only pass: how fast the serial framer can cut the file
/// into record-aligned chunks, with parse and merge costs excluded.
double TimeFramingStage(const std::string& path, ingest::ChunkFormat format,
                        uint64_t* chunks_out) {
  double best = 0.0;
  for (int rep = -1; rep < kReps; ++rep) {
    ingest::Chunker chunker(path, format, 256 * 1024);
    ingest::RawChunk chunk;
    uint64_t chunks = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (true) {
      Result<bool> more = chunker.Next(chunk);
      if (!more.ok() || !*more) break;
      ++chunks;
    }
    auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (rep >= 0 && (best == 0.0 || sec < best)) best = sec;
    *chunks_out = chunks;
  }
  return best;
}

struct FormatReport {
  std::string name;
  size_t events = 0;
  double ref_evps = 0.0;
  std::vector<std::pair<int, double>> pipeline_evps;  // (workers, evps)
  double frame_evps = 0.0;
  uint64_t frame_chunks = 0;
  ingest::PipelineStats stats4;
};

FormatReport BenchFormat(const std::string& name, const std::string& path,
                         bool netflow) {
  FormatReport report;
  report.name = name;

  auto reference_body = [&](std::vector<TraceEvent>& events,
                            std::vector<std::string>& labels) {
    ref::Interner interner;
    const bool ok = netflow ? ref::ReadNetflow(path, interner, events)
                            : ref::ReadTraceCsv(path, interner, events);
    if (!ok) return false;
    labels = CopyLabels(interner);
    return true;
  };
  constexpr int kWorkerSweep[] = {1, 2, 4, 8};
  ingest::PipelineStats stats[4];
  auto pipeline_body = [&](int sweep_idx, std::vector<TraceEvent>& events,
                           std::vector<std::string>& labels) {
    Interner interner;
    ingest::PipelineOptions options;
    options.parse_workers = kWorkerSweep[sweep_idx];
    // Deeper queues than the default: the bench replays from page cache, so
    // the framer runs far ahead of the parse workers and a shallow queue
    // turns that into blocking churn rather than useful buffering.
    options.queue_capacity = 32;
    if (netflow) options.netflow.weighting = NetflowWeighting::kOctets;
    Result<std::vector<TraceEvent>> read = ingest::ReadTraceEventsPipelined(
        path,
        netflow ? ingest::PipelineFormat::kNetflowV5
                : ingest::PipelineFormat::kTraceCsv,
        interner, options, &stats[sweep_idx]);
    if (!read.ok()) return false;
    events = std::move(*read);
    labels = CopyLabels(interner);
    return true;
  };

  // Interleaved rounds — every variant runs once per round, so a load
  // spike on the host degrades all of them rather than whichever variant
  // happened to be running; best-of-round ratios stay meaningful. Round 0
  // is an untimed warmup (page cache, allocator arenas) and the
  // equivalence gate: no round is timed until every variant matches the
  // reference.
  RunResult reference;
  RunResult pipeline[4];
  for (int round = 0; round <= kReps; ++round) {
    const bool timed = round > 0;
    TimeOnePass(reference_body, timed, reference);
    for (int i = 0; i < 4; ++i) {
      TimeOnePass([&](std::vector<TraceEvent>& events,
                      std::vector<std::string>& labels) {
        return pipeline_body(i, events, labels);
      }, timed, pipeline[i]);
      if (round == 0) {
        std::string what;
        what += "pipeline@";
        what += std::to_string(kWorkerSweep[i]);
        RequireEquivalent(reference, pipeline[i], what.c_str());
      }
    }
  }
  report.events = reference.events.size();

  const double n = static_cast<double>(report.events);
  report.ref_evps = n / reference.best_sec;
  for (int i = 0; i < 4; ++i) {
    report.pipeline_evps.emplace_back(kWorkerSweep[i],
                                      n / pipeline[i].best_sec);
  }
  report.stats4 = stats[2];

  report.frame_evps =
      n / TimeFramingStage(path,
                           netflow ? ingest::ChunkFormat::kNetflowV5
                                   : ingest::ChunkFormat::kCsvLines,
                           &report.frame_chunks);
  return report;
}

void Report(const FormatReport& r) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::printf("\n== %s (%zu events) ==\n", r.name.c_str(), r.events);
  PrintRow({"reader", "events/sec", "vs reference"});

  auto row = [&](const std::string& label, double evps) {
    PrintRow({label, Fmt(evps / 1e6, "%.2f") + "M",
              Fmt(evps / r.ref_evps, "%.2f") + "x"});
  };
  row("reference (pre-pipeline)", r.ref_evps);
  for (const auto& [workers, evps] : r.pipeline_evps) {
    std::string label;
    label += "pipeline @";
    label += std::to_string(workers);
    row(label, evps);
  }
  row("frame stage only", r.frame_evps);

  const ingest::PipelineStats& s = r.stats4;
  std::printf(
      "pipeline@4 stages: %llu chunks framed, %llu batches merged, "
      "%llu records, %llu producer stalls, %llu consumer stalls\n",
      static_cast<unsigned long long>(s.chunks_framed),
      static_cast<unsigned long long>(s.batches_merged),
      static_cast<unsigned long long>(s.records_parsed),
      static_cast<unsigned long long>(s.producer_stalls),
      static_cast<unsigned long long>(s.consumer_stalls));

  const std::string prefix = "ingest/" + r.name;
  reg.GetGauge(prefix + "_reference_events_per_sec").Set(r.ref_evps);
  reg.GetGauge(prefix + "_frame_stage_events_per_sec").Set(r.frame_evps);
  double pipeline1 = 0.0;
  double pipeline4 = 0.0;
  for (const auto& [workers, evps] : r.pipeline_evps) {
    std::string gauge;
    gauge += prefix;
    gauge += "_pipeline";
    gauge += std::to_string(workers);
    gauge += "_events_per_sec";
    reg.GetGauge(gauge).Set(evps);
    if (workers == 1) pipeline1 = evps;
    if (workers == 4) pipeline4 = evps;
  }
  reg.GetGauge(prefix + "_pipeline1_speedup").Set(pipeline1 / r.ref_evps);
  reg.GetGauge(prefix + "_pipeline4_speedup").Set(pipeline4 / r.ref_evps);
}

}  // namespace
}  // namespace commsig::bench

int main() {
  using namespace commsig;
  using namespace commsig::bench;

  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "commsig_perf_ingest";
  std::filesystem::create_directories(dir, ec);

  std::printf("generating corpora (%zu trace rows, %zu flow records)...\n",
              kTraceRows, kFlowRecords);
  const std::string trace_path = MakeTraceCorpus(dir / "bench_trace.csv");
  const std::string flow_path = MakeNetflowCorpus(dir / "bench_flows.nf5");

  Report(BenchFormat("trace", trace_path, /*netflow=*/false));
  Report(BenchFormat("netflow", flow_path, /*netflow=*/true));

  WriteBenchSnapshot("ingest");
  std::filesystem::remove_all(dir, ec);
  return 0;
}

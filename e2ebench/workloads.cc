#include "workloads.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "data/flow_generator.h"
#include "data/query_log_generator.h"

namespace commsig::e2e {
namespace {

constexpr uint64_t kHour = 3600;
constexpr uint64_t kDay = 24 * kHour;

// Generator sizes per scale. The full flow populations are below the
// figure benches' 300 hosts / 20 000 externals: there unbounded RWR alone
// takes ~13 s per pass, too long for several passes plus the scratch check
// pass in one run (see e2ebench/spec.json).
struct FlowSize {
  size_t hosts;
  size_t externals;
};
constexpr FlowSize kNetflowFull{100, 7000};
constexpr FlowSize kNetflowSmoke{30, 1000};
constexpr FlowSize kMonitorFull{100, 7000};
constexpr FlowSize kMonitorSmoke{30, 1000};

constexpr uint32_t kLocalBase = 0x0A000000;     // 10.0.0.0: local hosts
constexpr uint32_t kExternalBase = 0x0B000000;  // 11.0.0.0: externals
constexpr size_t kNetflowRecordsPerPacket = 30;

void AppendU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xff));
}

void AppendU32(std::string& out, uint32_t v) {
  AppendU16(out, static_cast<uint16_t>(v >> 16));
  AppendU16(out, static_cast<uint16_t>(v & 0xffff));
}

void AppendUint(std::string& out, uint64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.append(buf, end);
}

std::string DottedQuad(uint32_t addr) {
  std::string s;
  for (int shift = 24; shift >= 0; shift -= 8) {
    AppendUint(s, (addr >> shift) & 0xff);
    if (shift > 0) s.push_back('.');
  }
  return s;
}

void AddWeight(Reference& ref, NodeId src, NodeId dst, uint64_t time,
               double weight) {
  ref.weights[PackKey(src, dst, time / ref.bucket_length)] += weight;
}

void IndexLabels(Reference& ref) {
  ref.id_of_label.reserve(ref.labels.size());
  for (uint32_t id = 0; id < ref.labels.size(); ++id) {
    ref.id_of_label.emplace(ref.labels[id], id);
  }
}

FlowGeneratorConfig FlowConfig(FlowSize size, size_t windows, uint64_t seed) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = size.hosts;
  cfg.num_external_hosts = size.externals;
  cfg.num_windows = windows;
  cfg.seed = seed;
  return cfg;
}

/// Trace CSV rows `src,dst,time,weight` in time order (stable, so equal
/// timestamps keep generation order).
void RenderCsv(std::vector<TraceEvent> events, const Reference& ref,
               std::string* bytes) {
  if (bytes == nullptr) return;
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  bytes->clear();
  bytes->reserve(events.size() * 32);
  for (const TraceEvent& e : events) {
    bytes->append(ref.labels[e.src]);
    bytes->push_back(',');
    bytes->append(ref.labels[e.dst]);
    bytes->push_back(',');
    AppendUint(*bytes, e.time);
    bytes->push_back(',');
    AppendUint(*bytes, static_cast<uint64_t>(e.weight));
    bytes->push_back('\n');
  }
}

/// flow_netflow: one TCP flow record per session, time-ordered, packed 30
/// to a NetFlow v5 export packet. An exporter stamps a packet when it
/// sends it, so every record carries the packet's last flow time; the
/// reference aggregates under that stamp, exactly as a reader sees it.
Reference GenerateNetflow(FlowSize size, uint64_t seed, std::string* bytes) {
  FlowDataset ds = FlowTraceGenerator(FlowConfig(size, 6, seed)).Generate();
  Reference ref;
  ref.bucket_length = ds.window_length;
  ref.labels.resize(ds.interner.size());
  auto addr_of = [&](NodeId id) {
    return id < size.hosts
               ? kLocalBase + id
               : kExternalBase + static_cast<uint32_t>(id - size.hosts);
  };
  for (NodeId id = 0; id < ds.interner.size(); ++id) {
    ref.labels[id] = DottedQuad(addr_of(id));
  }
  IndexLabels(ref);

  struct Flow {
    uint64_t time;
    NodeId src;
    NodeId dst;
  };
  std::vector<Flow> flows;
  for (const TraceEvent& e : ds.events) {
    for (uint64_t s = 0; s < static_cast<uint64_t>(e.weight); ++s) {
      flows.push_back({e.time, e.src, e.dst});
    }
  }
  std::stable_sort(flows.begin(), flows.end(),
                   [](const Flow& a, const Flow& b) { return a.time < b.time; });
  ref.records = flows.size();

  Rng rng(seed ^ 0x6e6574666c6f77ULL);
  if (bytes != nullptr) {
    bytes->clear();
    bytes->reserve(flows.size() * 48 + flows.size() / 30 * 24 + 24);
  }
  uint32_t sequence = 0;
  for (size_t begin = 0; begin < flows.size();
       begin += kNetflowRecordsPerPacket) {
    const size_t end =
        std::min(flows.size(), begin + kNetflowRecordsPerPacket);
    const uint32_t stamp = static_cast<uint32_t>(flows[end - 1].time);
    for (size_t i = begin; i < end; ++i) {
      AddWeight(ref, flows[i].src, flows[i].dst, stamp, 1.0);
    }
    if (bytes == nullptr) continue;
    std::string& out = *bytes;
    AppendU16(out, 5);  // version
    AppendU16(out, static_cast<uint16_t>(end - begin));
    AppendU32(out, 0);  // sysuptime
    AppendU32(out, stamp);
    AppendU32(out, 0);  // unix_nsecs
    AppendU32(out, sequence);
    AppendU32(out, 0);  // engine type/id, sampling interval
    sequence += static_cast<uint32_t>(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const uint32_t packets = 1 + static_cast<uint32_t>(rng.UniformInt(40));
      AppendU32(out, addr_of(flows[i].src));
      AppendU32(out, addr_of(flows[i].dst));
      AppendU32(out, 0);  // nexthop
      AppendU32(out, 0);  // input / output interface
      AppendU32(out, packets);
      AppendU32(out, packets * (64 + static_cast<uint32_t>(rng.UniformInt(1400))));
      AppendU32(out, 0);  // first
      AppendU32(out, 0);  // last
      AppendU16(out, static_cast<uint16_t>(1024 + rng.UniformInt(60000)));
      AppendU16(out, 443);
      out.push_back(0);     // pad
      out.push_back(0x1b);  // tcp flags
      out.push_back(6);     // TCP
      out.push_back(0);     // tos
      AppendU32(out, 0);    // src / dst AS
      AppendU32(out, 0);    // masks, pad
    }
  }
  return ref;
}

/// querylog_k3: one CSV row per (user, table) access, weight 1.
Reference GenerateQueryLog(Scale scale, uint64_t seed, std::string* bytes) {
  QueryLogConfig cfg;  // defaults are the paper's scale
  if (scale == Scale::kSmoke) {
    cfg.num_users = 80;
    cfg.num_tables = 100;
    cfg.num_windows = 3;
  }
  cfg.seed = seed;
  QueryLogDataset ds = QueryLogGenerator(cfg).Generate();
  Reference ref;
  ref.bucket_length = ds.window_length;
  for (NodeId id = 0; id < ds.interner.size(); ++id) {
    ref.labels.push_back(ds.interner.LabelOf(id));
  }
  IndexLabels(ref);
  std::vector<TraceEvent> rows;
  for (const TraceEvent& e : ds.events) {
    for (uint64_t a = 0; a < static_cast<uint64_t>(e.weight); ++a) {
      rows.push_back({e.src, e.dst, e.time, 1.0});
    }
  }
  for (const TraceEvent& r : rows) AddWeight(ref, r.src, r.dst, r.time, 1.0);
  ref.records = rows.size();
  RenderCsv(std::move(rows), ref, bytes);
  return ref;
}

/// flow_monitor: ten days of the flow population, re-timed so each host
/// talks only in two seeded bursts per weekday (a morning and an afternoon
/// one, one to two hours each). Sliding by one hour then changes only the
/// hosts active in the entering or leaving hour, and night windows change
/// nothing — the regime incremental reuse is built for.
Reference GenerateMonitor(FlowSize size, uint64_t bucket, uint64_t seed,
                          std::string* bytes) {
  FlowGeneratorConfig cfg = FlowConfig(size, 2, seed);
  cfg.window_length = 5 * kDay;
  FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  const uint64_t days = 2 * cfg.window_length / kDay;

  struct Burst {
    uint64_t start;
    uint64_t length;
  };
  Rng rng(seed ^ 0x6d6f6e69746f72ULL);
  std::vector<Burst> morning(size.hosts), afternoon(size.hosts);
  for (size_t h = 0; h < size.hosts; ++h) {
    morning[h] = {(7 + rng.UniformInt(4)) * kHour,
                  (1 + rng.UniformInt(2)) * kHour};
    afternoon[h] = {(13 + rng.UniformInt(4)) * kHour,
                    (1 + rng.UniformInt(2)) * kHour};
  }
  for (TraceEvent& e : ds.events) {
    uint64_t day = e.time / kDay;
    // Weekend traffic moves to the adjacent weekday (days 5 and 6 of each
    // week are the weekend).
    if (day % 7 == 5) {
      day -= 1;
    } else if (day % 7 == 6) {
      day = day + 1 < days ? day + 1 : day - 2;
    }
    const Burst& b = rng.Bernoulli(0.5) ? morning[e.src] : afternoon[e.src];
    e.time = day * kDay + b.start + rng.UniformInt(b.length);
  }

  Reference ref;
  ref.bucket_length = bucket;
  for (NodeId id = 0; id < ds.interner.size(); ++id) {
    ref.labels.push_back(ds.interner.LabelOf(id));
  }
  IndexLabels(ref);
  for (const TraceEvent& e : ds.events) {
    AddWeight(ref, e.src, e.dst, e.time, e.weight);
  }
  ref.records = ds.events.size();
  RenderCsv(std::move(ds.events), ref, bytes);
  return ref;
}

}  // namespace

const std::vector<std::string>& AllSchemeKeys() {
  static const std::vector<std::string> keys = {"tt", "ut", "rwr_h3", "rwr"};
  return keys;
}

bool FindWorkload(std::string_view name, Scale scale, WorkloadSpec& spec) {
  spec = WorkloadSpec();
  spec.name = std::string(name);
  if (name == "flow_netflow") {
    spec.format = ingest::PipelineFormat::kNetflowV5;
    spec.window_length = 5 * kDay;
    spec.stride = spec.window_length;
    spec.windows = 6;
    spec.k = 10;
    spec.scheme_specs = {"tt", "rwr(c=0.1,h=3)", "rwr(c=0.1)", "ut"};
    spec.scheme_keys = {"tt", "rwr_h3", "rwr", "ut"};
  } else if (name == "querylog_k3") {
    spec.format = ingest::PipelineFormat::kTraceCsv;
    spec.window_length = 1000;
    spec.stride = spec.window_length;
    spec.windows = scale == Scale::kFull ? 5 : 3;
    spec.k = 3;
    spec.scheme_specs = {"tt", "ut"};
    spec.scheme_keys = {"tt", "ut"};
  } else if (name == "flow_monitor") {
    spec.format = ingest::PipelineFormat::kTraceCsv;
    spec.window_length = 5 * kDay;
    spec.stride = scale == Scale::kFull ? kHour : 12 * kHour;
    // Ten days of trace: full windows start every stride up to day five.
    spec.windows = (10 * kDay - spec.window_length) / spec.stride + 1;
    spec.k = 10;
    spec.scheme_specs = {"tt", "ut", "rwr(c=0.1,h=3)"};
    spec.scheme_keys = {"tt", "ut", "rwr_h3"};
  } else {
    return false;
  }
  return true;
}

uint64_t PackKey(uint32_t src, uint32_t dst, uint64_t bucket) {
  // 21 bits per node id and 22 for the bucket cover every workload here;
  // anything larger is a benchmark bug, not an input to tolerate.
  if (src >= (1u << 21) || dst >= (1u << 21) || bucket >= (1ull << 22)) {
    std::fprintf(stderr, "PackKey out of range (%u, %u, %llu)\n", src, dst,
                 static_cast<unsigned long long>(bucket));
    std::abort();
  }
  return (static_cast<uint64_t>(src) << 43) |
         (static_cast<uint64_t>(dst) << 22) | bucket;
}

Reference Generate(const WorkloadSpec& spec, Scale scale, uint64_t seed,
                   std::string* bytes) {
  const bool full = scale == Scale::kFull;
  if (spec.name == "flow_netflow") {
    return GenerateNetflow(full ? kNetflowFull : kNetflowSmoke, seed, bytes);
  }
  if (spec.name == "querylog_k3") return GenerateQueryLog(scale, seed, bytes);
  return GenerateMonitor(full ? kMonitorFull : kMonitorSmoke, spec.stride,
                         seed, bytes);
}

}  // namespace commsig::e2e

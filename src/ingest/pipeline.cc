#include "ingest/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "graph/graph_builder.h"
#include "ingest/chunker.h"
#include "ingest/record_batch.h"
#include "ingest/record_decode.h"
#include "ingest/row_scanner.h"
#include "ingest/spsc_queue.h"
#include "obs/obs.h"
#include "obs/window_stats.h"

namespace commsig::ingest {

namespace {

constexpr size_t kNetflowRecordBytes = 48;

/// Row grammar a parse worker applies to its chunks.
enum class RowFormat { kTrace, kEdge, kSignature, kNetflow };

// ---------------------------------------------------------------------------
// Worker-local scratch: chunk-level label deduplication.
// ---------------------------------------------------------------------------

/// Open-addressed map from label bytes to an index in the batch's label
/// arena. Lives in the worker and is reset per chunk; the arena itself is
/// in the batch so it travels to the merge stage. Labels enter the arena in
/// first-reference order — the order an in-order read first interns them —
/// which is what lets the merge's bulk path intern arena-order.
class ChunkLabelTable {
 public:
  void Reset() {
    if (!slots_.empty()) std::fill(slots_.begin(), slots_.end(), Slot{});
    count_ = 0;
  }

  uint32_t Add(std::string_view label, IngestBatch& batch) {
    if (slots_.empty()) slots_.assign(kInitialSlots, Slot{});
    const uint64_t hash = Interner::HashOf(label);
    // Probe index uses the low hash bits, the in-slot tag the high bits, so
    // a tag hit carries real evidence beyond landing in the same bucket.
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.idx == kNoLabel) break;
      if (slot.tag == tag) {
        const LabelRef& ref = batch.labels[slot.idx];
        if (ref.hash == hash && ref.len == label.size() &&
            std::memcmp(batch.label_data.data() + ref.offset, label.data(),
                        label.size()) == 0) {
          return slot.idx;
        }
      }
      i = (i + 1) & mask;
    }
    const uint32_t idx = static_cast<uint32_t>(batch.labels.size());
    batch.labels.push_back({static_cast<uint32_t>(batch.label_data.size()),
                            static_cast<uint32_t>(label.size()), hash});
    batch.label_data.append(label);
    slots_[i] = Slot{tag, idx};
    if (++count_ * 10 >= slots_.size() * 7) Grow(batch);
    return idx;
  }

 private:
  static constexpr size_t kInitialSlots = 4096;

  /// One probe entry: hash tag + label-arena index. The tag rejects nearly
  /// every non-matching slot from the probe cache line alone, without the
  /// dependent load into batch.labels / label_data; `idx == kNoLabel`
  /// marks an empty slot.
  struct Slot {
    uint32_t tag = 0;
    uint32_t idx = kNoLabel;
  };

  void Grow(const IngestBatch& batch) {
    std::vector<Slot> fresh(slots_.size() * 2, Slot{});
    const size_t mask = fresh.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.idx == kNoLabel) continue;
      const uint64_t hash = batch.labels[slot.idx].hash;
      size_t i = static_cast<size_t>(hash) & mask;
      while (fresh[i].idx != kNoLabel) i = (i + 1) & mask;
      fresh[i] = slot;
    }
    slots_ = std::move(fresh);
  }

  std::vector<Slot> slots_;
  size_t count_ = 0;
};

/// Per-chunk memo of IPv4 address -> label-arena index: each distinct
/// address is formatted and hashed once per chunk.
class ChunkAddrMemo {
 public:
  void Reset() {
    if (!entries_.empty()) {
      std::fill(entries_.begin(), entries_.end(), Entry{});
    }
    count_ = 0;
  }

  uint32_t Add(uint32_t addr, IngestBatch& batch) {
    if (entries_.empty()) entries_.assign(kInitialSlots, Entry{});
    const size_t mask = entries_.size() - 1;
    size_t i = Mix(addr) & mask;
    while (true) {
      const Entry& e = entries_[i];
      if (e.idx == kNoLabel) break;
      if (e.addr == addr) return e.idx;
      i = (i + 1) & mask;
    }
    char buf[16];
    const std::string_view label(buf, FormatIpv4(addr, buf));
    const uint32_t idx = static_cast<uint32_t>(batch.labels.size());
    batch.labels.push_back({static_cast<uint32_t>(batch.label_data.size()),
                            static_cast<uint32_t>(label.size()),
                            Interner::HashOf(label)});
    batch.label_data.append(label);
    entries_[i] = Entry{addr, idx};
    if (++count_ * 10 >= entries_.size() * 7) Grow();
    return idx;
  }

 private:
  static constexpr size_t kInitialSlots = 2048;

  struct Entry {
    uint32_t addr = 0;
    uint32_t idx = kNoLabel;  // kNoLabel marks an empty slot (addr 0 valid)
  };

  static size_t Mix(uint32_t addr) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(addr) * 0x9e3779b97f4a7c15ull) >> 32);
  }

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.size() * 2, Entry{});
    const size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.idx == kNoLabel) continue;
      size_t i = Mix(e.addr) & mask;
      while (entries_[i].idx != kNoLabel) i = (i + 1) & mask;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;
  size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Parse-worker decode: RawChunk -> IngestBatch.
// ---------------------------------------------------------------------------

void AppendTimeText(std::string_view text, IngestBatch& batch) {
  batch.time_text.push_back({static_cast<uint32_t>(batch.label_data.size()),
                             static_cast<uint32_t>(text.size()), 0});
  batch.label_data.append(text);
}

void DecodeCsvChunk(RowFormat format, bool capture_time_text,
                    const RawChunk& chunk, IngestBatch& batch,
                    ChunkLabelTable& table) {
  table.Reset();
  FusedRowScanner scanner(chunk.data, ',');
  std::string_view line;
  std::string_view fields[4];
  size_t count = 0;
  const size_t max_fields = format == RowFormat::kTrace ? 4 : 3;
  while (scanner.Next(line, fields, max_fields, count)) {
    RowReject reject;
    ParsedRecord rec;
    rec.rel_line = static_cast<uint32_t>(scanner.line_number());
    switch (format) {
      case RowFormat::kTrace: {
        TraceRow row;
        if (!DecodeTraceRow(fields, count, row, reject)) break;
        rec.src = table.Add(row.src, batch);
        rec.dst = table.Add(row.dst, batch);
        rec.time = row.time;
        rec.weight = row.weight;
        if (capture_time_text) AppendTimeText(row.time_text, batch);
        batch.records.push_back(rec);
        continue;
      }
      case RowFormat::kEdge: {
        EdgeRow row;
        if (!DecodeEdgeRow(fields, count, row, reject)) break;
        rec.src = table.Add(row.src, batch);
        rec.dst = table.Add(row.dst, batch);
        rec.weight = row.weight;
        batch.records.push_back(rec);
        continue;
      }
      case RowFormat::kSignature: {
        SignatureRow row;
        const SignatureRowKind kind =
            DecodeSignatureRow(fields, count, row, reject);
        if (kind == SignatureRowKind::kReject) break;
        rec.src = table.Add(row.owner, batch);
        if (kind == SignatureRowKind::kEntry) {
          rec.dst = table.Add(row.member, batch);
          rec.weight = row.weight;
        }
        batch.records.push_back(rec);
        continue;
      }
      case RowFormat::kNetflow:
        continue;  // unreachable: NetFlow chunks use DecodeNetflowChunk
    }
    batch.rejects.push_back({static_cast<uint32_t>(batch.records.size()),
                             reject.reason, scanner.line_number(),
                             std::move(reject.detail)});
  }
  batch.data_lines = scanner.line_number();
}

void DecodeNetflowChunk(const NetflowReadOptions& options, RawChunk& chunk,
                        IngestBatch& batch, ChunkAddrMemo& memo) {
  memo.Reset();
  size_t next_reject = 0;
  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(chunk.data.data());
  for (size_t p = 0; p <= chunk.packets.size(); ++p) {
    while (next_reject < chunk.framing_rejects.size() &&
           chunk.framing_rejects[next_reject].before_packet == p) {
      FramingReject& fr = chunk.framing_rejects[next_reject];
      batch.rejects.push_back({static_cast<uint32_t>(batch.records.size()),
                               fr.reason, fr.position,
                               std::move(fr.detail)});
      ++next_reject;
    }
    if (p == chunk.packets.size()) break;
    const PacketRef& pk = chunk.packets[p];
    const unsigned char* body = data + pk.body_offset;
    for (uint32_t i = 0; i < pk.count; ++i) {
      const NetflowV5Record r =
          DecodeNetflowRecord(body + i * kNetflowRecordBytes, pk.unix_secs);
      double weight = 0.0;
      if (!NetflowEventWeight(r, options, weight)) continue;
      ParsedRecord rec;
      rec.src = memo.Add(r.src_addr, batch);
      rec.dst = memo.Add(r.dst_addr, batch);
      rec.time = r.unix_secs;
      rec.weight = weight;
      batch.records.push_back(rec);
    }
  }
}

// ---------------------------------------------------------------------------
// Merge stage: in-order batch consumption, serial interning, error policy.
// ---------------------------------------------------------------------------

struct MergeContext {
  MergeContext(Interner& interner_in, const IngestOptions& ingest_in)
      : interner(interner_in), ingest(ingest_in) {}

  Interner& interner;
  const IngestOptions& ingest;
  /// True for NetFlow (byte offsets, Corruption on kFail); false for CSV
  /// (data-line numbers offset by line_base, InvalidArgument on kFail).
  bool absolute_positions = false;
  /// Trace-CSV monotonic-time enforcement happens here: it needs the
  /// cross-chunk last-accepted-time state.
  bool monotonic = false;

  uint64_t errors = 0;
  uint64_t line_base = 0;
  uint64_t last_time = 0;
  bool have_last_time = false;
  std::vector<NodeId> id_map;
};

std::string_view LabelView(const IngestBatch& batch, const LabelRef& ref) {
  return std::string_view(batch.label_data.data() + ref.offset, ref.len);
}

NodeId LazyIntern(MergeContext& ctx, const IngestBatch& batch, uint32_t idx) {
  NodeId& slot = ctx.id_map[idx];
  if (slot == kInvalidNode) {
    const LabelRef& ref = batch.labels[idx];
    slot = ctx.interner.InternPrehashed(LabelView(batch, ref), ref.hash);
  }
  return slot;
}

/// Merges one batch into the sink in exact stream order. The fast path
/// (no reject candidates, no merge-side monotonic check) bulk-interns the
/// deduplicated label arena and translates records through the id map. The
/// slow path replays HandleBadRecord interleaved with records and interns
/// lazily at record-accept time, so an abort (kFail, exhausted budget)
/// never interns labels past the abort point and a merge-rejected row's
/// labels are never interned.
template <typename Sink>
Status MergeBatch(MergeContext& ctx, IngestBatch& batch, Sink& sink) {
  if (batch.rejects.empty() && !ctx.monotonic) {
    constexpr size_t kPrefetchAhead = 8;
    ctx.id_map.resize(batch.labels.size());
    for (size_t i = 0; i < batch.labels.size(); ++i) {
      if (i + kPrefetchAhead < batch.labels.size()) {
        ctx.interner.Prefetch(batch.labels[i + kPrefetchAhead].hash);
      }
      ctx.id_map[i] = ctx.interner.InternPrehashed(
          LabelView(batch, batch.labels[i]), batch.labels[i].hash);
    }
    if constexpr (requires { sink.EmitBulk(batch.records, ctx.id_map); }) {
      sink.EmitBulk(batch.records, ctx.id_map);
    } else {
      for (const ParsedRecord& r : batch.records) {
        sink.Emit(ctx.id_map[r.src],
                  r.dst == kNoLabel ? kInvalidNode : ctx.id_map[r.dst],
                  r.time, r.weight);
      }
    }
    ctx.line_base += batch.data_lines;
    return Status::OK();
  }

  ctx.id_map.assign(batch.labels.size(), kInvalidNode);
  size_t next_reject = 0;
  for (size_t i = 0; i <= batch.records.size(); ++i) {
    while (next_reject < batch.rejects.size() &&
           batch.rejects[next_reject].before_record == i) {
      RejectCandidate& rc = batch.rejects[next_reject];
      const uint64_t position =
          ctx.absolute_positions ? rc.position : ctx.line_base + rc.position;
      Status s = robust_internal::HandleBadRecord(
          ctx.ingest, &ctx.errors, rc.reason, position, std::move(rc.detail),
          /*invalid_argument_on_fail=*/!ctx.absolute_positions);
      if (!s.ok()) return s;
      ++next_reject;
    }
    if (i == batch.records.size()) break;
    const ParsedRecord& r = batch.records[i];
    if (ctx.monotonic && ctx.have_last_time && r.time < ctx.last_time) {
      const LabelRef& tt = batch.time_text[i];
      std::string detail = "time ";
      detail.append(LabelView(batch, tt));
      detail += " precedes ";
      detail += std::to_string(ctx.last_time);
      Status s = robust_internal::HandleBadRecord(
          ctx.ingest, &ctx.errors, RecordErrorReason::kTimestampRegression,
          ctx.line_base + r.rel_line, std::move(detail),
          /*invalid_argument_on_fail=*/true);
      if (!s.ok()) return s;
      continue;
    }
    if (ctx.monotonic) {
      ctx.last_time = r.time;
      ctx.have_last_time = true;
    }
    const NodeId src = LazyIntern(ctx, batch, r.src);
    const NodeId dst =
        r.dst == kNoLabel ? kInvalidNode : LazyIntern(ctx, batch, r.dst);
    sink.Emit(src, dst, r.time, r.weight);
  }
  ctx.line_base += batch.data_lines;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The pipeline runner.
// ---------------------------------------------------------------------------

/// One parse worker's queue set and buffer pools. Every queue is SPSC:
/// framer -> worker (chunks), worker -> framer (chunk recycling),
/// worker -> merge (batches), merge -> worker (batch recycling).
struct WorkerLane {
  std::unique_ptr<BoundedSpscQueue<RawChunk*>> chunk_q;
  std::unique_ptr<BoundedSpscQueue<RawChunk*>> free_chunk_q;
  std::unique_ptr<BoundedSpscQueue<IngestBatch*>> batch_q;
  std::unique_ptr<BoundedSpscQueue<IngestBatch*>> free_batch_q;
  std::vector<std::unique_ptr<RawChunk>> chunk_pool;
  std::vector<std::unique_ptr<IngestBatch>> batch_pool;
};

/// Runs the staged pipeline over `path` and feeds merged records to `sink`
/// (devirtualized: one instantiation per sink type). Stage layout:
///
///   framer thread ──chunk_q[w]──► parse worker w ──batch_q[w]──► merge
///        ▲                                                         │
///        └───────── free queues recycle chunk/batch buffers ◄──────┘
///
/// Chunk `seq % workers` picks the lane, so each lane carries a monotone
/// subsequence of chunk seqs and the merge recovers global order with a
/// k-way minimum over lane heads — no reorder buffer. The merge thread is
/// the only one touching the interner, the error policy, budgets and the
/// sink; workers only decode into private batches. That split is what
/// makes the result identical at every worker count (under kBlock).
template <typename Sink>
Status RunPipeline(const std::string& path, RowFormat format,
                   Interner& interner, const PipelineOptions& options,
                   Sink& sink, PipelineStats* stats_out) {
  COMMSIG_SPAN("ingest/pipeline_read");
  const size_t workers =
      static_cast<size_t>(std::max(options.parse_workers, 1));
  const bool netflow = format == RowFormat::kNetflow;
  const bool monotonic_merge =
      options.ingest.require_monotonic_time && format == RowFormat::kTrace;

  Chunker chunker(path,
                  netflow ? ChunkFormat::kNetflowV5 : ChunkFormat::kCsvLines,
                  options.chunk_bytes,
                  netflow && options.ingest.require_monotonic_time);
  if (!chunker.status().ok()) return chunker.status();

  const size_t cap = std::max<size_t>(options.queue_capacity, 1);
  const size_t pool = cap + 2;
  std::vector<WorkerLane> lanes(workers);
  for (WorkerLane& lane : lanes) {
    lane.chunk_q = std::make_unique<BoundedSpscQueue<RawChunk*>>(cap);
    lane.free_chunk_q = std::make_unique<BoundedSpscQueue<RawChunk*>>(pool);
    lane.batch_q = std::make_unique<BoundedSpscQueue<IngestBatch*>>(cap);
    lane.free_batch_q = std::make_unique<BoundedSpscQueue<IngestBatch*>>(pool);
    for (size_t i = 0; i < pool; ++i) {
      lane.chunk_pool.push_back(std::make_unique<RawChunk>());
      RawChunk* chunk = lane.chunk_pool.back().get();
      lane.free_chunk_q->Push(chunk);
      lane.batch_pool.push_back(std::make_unique<IngestBatch>());
      IngestBatch* batch = lane.batch_pool.back().get();
      lane.free_batch_q->Push(batch);
    }
  }

  std::atomic<bool> abort{false};
  Status framer_status;  // written by the framer thread, read after join
  uint64_t chunks_framed = 0;
  uint64_t chunks_shed = 0;
  const bool shed = options.backpressure == BackpressurePolicy::kShed;

  std::thread framer([&] {
    RawChunk scratch;
    while (!abort.load(std::memory_order_relaxed)) {
      Result<bool> framed = chunker.Next(scratch);
      if (!framed.ok()) {
        framer_status = framed.status();
        break;
      }
      if (!*framed) break;
      WorkerLane& lane = lanes[scratch.seq % workers];
      if (!shed) {
        RawChunk* slot = nullptr;
        if (!lane.free_chunk_q->Pop(slot)) break;  // closed: aborting
        std::swap(*slot, scratch);
        if (!lane.chunk_q->Push(slot)) break;
        ++chunks_framed;
        continue;
      }
      // Shed policy: never block the IO stage. A full lane drops the whole
      // chunk (counted, reported as overload) — the stream stays live at
      // the cost of a scheduling-dependent result.
      RawChunk* slot = nullptr;
      bool delivered = false;
      if (lane.free_chunk_q->TryPop(slot)) {
        std::swap(*slot, scratch);
        if (lane.chunk_q->TryPush(slot)) {
          delivered = true;
        } else {
          // Lane full: reclaim the buffer (the free queue always has room
          // for every pooled chunk) and drop the payload.
          lane.free_chunk_q->Push(slot);
        }
      }
      if (delivered) {
        ++chunks_framed;
      } else {
        ++chunks_shed;
        if (options.degradation != nullptr) {
          options.degradation->ReportOverload("ingest queue full");
        }
      }
    }
    for (WorkerLane& lane : lanes) lane.chunk_q->Close();
  });

  std::vector<std::thread> worker_threads;
  worker_threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    worker_threads.emplace_back([&, w] {
      WorkerLane& lane = lanes[w];
      ChunkLabelTable table;
      ChunkAddrMemo memo;
      RawChunk* chunk = nullptr;
      while (lane.chunk_q->Pop(chunk)) {
        IngestBatch* batch = nullptr;
        if (!lane.free_batch_q->Pop(batch)) break;  // closed: aborting
        batch->Clear();
        batch->seq = chunk->seq;
        if (netflow) {
          DecodeNetflowChunk(options.netflow, *chunk, *batch, memo);
        } else {
          DecodeCsvChunk(format, monotonic_merge, *chunk, *batch, table);
        }
        lane.free_chunk_q->Push(chunk);  // room guaranteed (pool-sized)
        if (!lane.batch_q->Push(batch)) break;
      }
      lane.batch_q->Close();
    });
  }

  // Merge on the calling thread: k-way minimum-seq over lane heads. Each
  // lane yields a monotonically increasing subsequence of seqs, so the
  // smallest head is always the globally next batch (shed chunks leave
  // holes, which this handles for free).
  MergeContext ctx{interner, options.ingest};
  ctx.absolute_positions = netflow;
  ctx.monotonic = monotonic_merge;
  std::vector<IngestBatch*> heads(workers, nullptr);
  for (size_t w = 0; w < workers; ++w) {
    if (!lanes[w].batch_q->Pop(heads[w])) heads[w] = nullptr;
  }
  Status merge_status;
  uint64_t batches_merged = 0;
  uint64_t records_parsed = 0;
  while (true) {
    size_t best = workers;
    for (size_t w = 0; w < workers; ++w) {
      if (heads[w] != nullptr &&
          (best == workers || heads[w]->seq < heads[best]->seq)) {
        best = w;
      }
    }
    if (best == workers) break;
    IngestBatch* batch = heads[best];
    Status s = MergeBatch(ctx, *batch, sink);
    ++batches_merged;
    records_parsed += batch->records.size();
    COMMSIG_HISTOGRAM_OBSERVE("ingest/batch_records", batch->records.size());
    lanes[best].free_batch_q->Push(batch);  // room guaranteed
    if (!s.ok()) {
      merge_status = s;
      break;
    }
    if (!lanes[best].batch_q->Pop(heads[best])) heads[best] = nullptr;
  }

  if (!merge_status.ok()) {
    // Unwind the upstream stages: closing every queue fails their blocking
    // operations, so framer and workers exit promptly.
    abort.store(true, std::memory_order_relaxed);
    for (WorkerLane& lane : lanes) {
      lane.chunk_q->Close();
      lane.free_chunk_q->Close();
      lane.batch_q->Close();
      lane.free_batch_q->Close();
    }
  }
  framer.join();
  for (std::thread& t : worker_threads) t.join();

  PipelineStats stats;
  stats.chunks_framed = chunks_framed;
  stats.chunks_shed = chunks_shed;
  stats.batches_merged = batches_merged;
  stats.records_parsed = records_parsed;
  for (WorkerLane& lane : lanes) {
    stats.producer_stalls +=
        lane.chunk_q->producer_stalls() + lane.batch_q->producer_stalls();
    stats.consumer_stalls +=
        lane.chunk_q->consumer_stalls() + lane.batch_q->consumer_stalls();
  }
  COMMSIG_COUNTER_ADD("ingest/chunks_framed", stats.chunks_framed);
  if (stats.chunks_shed > 0) {
    COMMSIG_COUNTER_ADD("ingest/chunks_shed", stats.chunks_shed);
  }
  COMMSIG_COUNTER_ADD("ingest/batches_merged", stats.batches_merged);
  COMMSIG_COUNTER_ADD("ingest/records_parsed", stats.records_parsed);
  if (stats.producer_stalls > 0) {
    COMMSIG_COUNTER_ADD("ingest/producer_stalls", stats.producer_stalls);
  }
  if (stats.consumer_stalls > 0) {
    COMMSIG_COUNTER_ADD("ingest/consumer_stalls", stats.consumer_stalls);
  }
  COMMSIG_GAUGE_SET("ingest/parse_workers", static_cast<double>(workers));
  obs::WindowStatsAggregator::IngestRunStats run;
  run.parse_workers = workers;
  run.chunks_framed = stats.chunks_framed;
  run.chunks_shed = stats.chunks_shed;
  run.batches_merged = stats.batches_merged;
  run.records_parsed = stats.records_parsed;
  run.producer_stalls = stats.producer_stalls;
  run.consumer_stalls = stats.consumer_stalls;
  obs::WindowStatsAggregator::Global().RecordIngestRun(run);
  if (stats_out != nullptr) *stats_out = stats;

  if (!merge_status.ok()) return merge_status;
  return framer_status;
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

struct EventsSink {
  std::vector<TraceEvent>& out;
  void Emit(NodeId src, NodeId dst, uint64_t time, double weight) {
    out.push_back({src, dst, time, weight});
  }
  /// Merge fast path: one resize per batch, then straight-line stores —
  /// the per-record capacity check and growth branch of push_back are
  /// measurable at millions of events per second.
  void EmitBulk(const std::vector<ParsedRecord>& records,
                const std::vector<NodeId>& id_map) {
    const size_t old = out.size();
    out.resize(old + records.size());
    TraceEvent* next = out.data() + old;
    for (const ParsedRecord& r : records) {
      *next++ = {id_map[r.src],
                 r.dst == kNoLabel ? kInvalidNode : id_map[r.dst], r.time,
                 r.weight};
    }
  }
};

struct EdgeRowsSink {
  std::vector<CommGraph::FlatEdge> rows;
  void Emit(NodeId src, NodeId dst, uint64_t /*time*/, double weight) {
    rows.push_back({src, dst, weight});
  }
};

struct SignatureRowsSink {
  std::vector<NodeId> order;
  std::unordered_map<NodeId, std::vector<Signature::Entry>> entries;
  void Emit(NodeId owner, NodeId member, uint64_t /*time*/, double weight) {
    if (!entries.contains(owner)) {
      order.push_back(owner);
      entries.emplace(owner, std::vector<Signature::Entry>{});
    }
    if (member == kInvalidNode) return;  // empty-signature marker row
    entries[owner].push_back({member, weight});
  }
};

// ---------------------------------------------------------------------------
// Sharded windower stage.
// ---------------------------------------------------------------------------

/// A block of merged events in flight to one window shard.
struct EventBlock {
  std::vector<TraceEvent> events;
};

/// The merge-side sink that routes accepted events into per-shard windower
/// stages through bounded SPSC queues. Sharding is by `src % shards`: every
/// observation of a (src, dst) pair lands in one shard in stream order, so
/// per-shard aggregation sums each edge's weights in stream order and the
/// final per-window graphs are bit-identical to TraceWindower::Split on the
/// merged events.
///
/// While ingestion runs, shard threads pre-bucket window counts and store
/// their events. Validation and aggregation need the final node-universe
/// size, so they run in FinishAndBuild after the merge completes.
class ShardedWindowSink {
 public:
  ShardedWindowSink(size_t shards, size_t queue_capacity,
                    uint64_t window_length, uint64_t start_time)
      : shards_(std::max<size_t>(shards, 1)),
        window_length_(std::max<uint64_t>(window_length, 1)),
        start_time_(start_time),
        states_(shards_) {
    const size_t pool = queue_capacity + 2;
    for (size_t s = 0; s < shards_; ++s) {
      ShardState& st = states_[s];
      st.queue =
          std::make_unique<BoundedSpscQueue<EventBlock*>>(queue_capacity);
      st.free_queue = std::make_unique<BoundedSpscQueue<EventBlock*>>(pool);
      for (size_t i = 0; i < pool; ++i) {
        st.pool.push_back(std::make_unique<EventBlock>());
        EventBlock* block = st.pool.back().get();
        st.free_queue->Push(block);
      }
      if (!st.free_queue->Pop(st.filling)) st.filling = nullptr;
      st.thread = std::thread([this, s] { ShardLoop(s); });
    }
  }

  ~ShardedWindowSink() { Shutdown(); }

  void Emit(NodeId src, NodeId dst, uint64_t time, double weight) {
    ShardState& st = states_[src % shards_];
    st.filling->events.push_back({src, dst, time, weight});
    if (st.filling->events.size() >= kBlockEvents) Flush(st);
  }

  /// Flushes remainders, stops the shard threads, and assembles the final
  /// window graphs (parallelized over shards, then over windows).
  std::vector<CommGraph> FinishAndBuild(size_t num_nodes,
                                        NodeId bipartite_left_size) {
    num_nodes_.store(num_nodes, std::memory_order_release);
    Shutdown();

    size_t num_windows = 0;
    for (ShardState& st : states_) {
      num_windows = std::max(num_windows, st.num_windows);
    }

    // Per-shard validation + aggregation (the per-pair weight sums), then
    // per-window assembly from the disjoint shard aggregates.
    ThreadPool pool(std::min(shards_, static_cast<size_t>(8)));
    ParallelFor(pool, shards_, [&](size_t s) { AggregateShard(s); });

    uint64_t dropped = 0;
    std::vector<uint64_t> window_events(num_windows, 0);
    for (ShardState& st : states_) {
      dropped += st.dropped;
      for (size_t w = 0; w < st.events_per_window.size(); ++w) {
        window_events[w] += st.events_per_window[w];
      }
    }

    std::vector<CommGraph> graphs(num_windows);
    ParallelFor(pool, num_windows, [&](size_t w) {
      GraphBuilder builder(num_nodes);
      builder.SetBipartiteLeftSize(bipartite_left_size);
      size_t total = 0;
      for (ShardState& st : states_) {
        if (w < st.aggregated.size()) total += st.aggregated[w].size();
      }
      builder.Reserve(total);
      for (ShardState& st : states_) {
        if (w >= st.aggregated.size()) continue;
        for (const CommGraph::FlatEdge& e : st.aggregated[w]) {
          builder.AddEdge(e.src, e.dst, e.weight);
        }
      }
      graphs[w] = std::move(builder).Build();
    });

    // Same accounting the serial windower emits, so dashboards can't tell
    // the paths apart.
    if (dropped > 0) {
      COMMSIG_COUNTER_ADD("robust/windower_dropped_events", dropped);
    }
    COMMSIG_COUNTER_ADD("windower/windows_built", num_windows);
    for (size_t w = 0; w < num_windows; ++w) {
      COMMSIG_HISTOGRAM_OBSERVE("windower/window_events", window_events[w]);
    }
    return graphs;
  }

  uint64_t producer_stalls() const {
    uint64_t total = 0;
    for (const ShardState& st : states_) total += st.queue->producer_stalls();
    return total;
  }
  uint64_t consumer_stalls() const {
    uint64_t total = 0;
    for (const ShardState& st : states_) total += st.queue->consumer_stalls();
    return total;
  }

 private:
  static constexpr size_t kBlockEvents = 4096;

  struct ShardState {
    std::unique_ptr<BoundedSpscQueue<EventBlock*>> queue;
    std::unique_ptr<BoundedSpscQueue<EventBlock*>> free_queue;
    std::vector<std::unique_ptr<EventBlock>> pool;
    EventBlock* filling = nullptr;
    std::thread thread;

    // Shard-thread state (owned by the shard thread until join).
    std::vector<TraceEvent> events;
    std::vector<size_t> window_counts;
    size_t num_windows = 0;

    // Finish-stage results.
    uint64_t dropped = 0;
    std::vector<uint64_t> events_per_window;
    std::vector<std::vector<CommGraph::FlatEdge>> aggregated;
  };

  size_t WindowOf(uint64_t time) const {
    if (time < start_time_) return static_cast<size_t>(-1);
    return static_cast<size_t>((time - start_time_) / window_length_);
  }

  void Flush(ShardState& st) {
    if (st.filling == nullptr || st.filling->events.empty()) return;
    st.queue->Push(st.filling);
    if (!st.free_queue->Pop(st.filling)) st.filling = nullptr;
  }

  void ShardLoop(size_t s) {
    ShardState& st = states_[s];
    EventBlock* block = nullptr;
    while (st.queue->Pop(block)) {
      for (const TraceEvent& e : block->events) {
        const size_t w = WindowOf(e.time);
        if (w != static_cast<size_t>(-1)) {
          if (w + 1 > st.num_windows) {
            st.num_windows = w + 1;
            st.window_counts.resize(st.num_windows, 0);
          }
          ++st.window_counts[w];
          st.events.push_back(e);
        }
      }
      block->events.clear();
      st.free_queue->Push(block);
    }
  }

  /// Validation (TryAddEdge's exact predicate) + per-window, per-pair
  /// aggregation for one shard. Weights of one pair sum in stream order —
  /// the stable sort preserves it — which is the bit-identity argument.
  void AggregateShard(size_t s) {
    ShardState& st = states_[s];
    const size_t num_nodes = num_nodes_.load(std::memory_order_acquire);
    st.events_per_window.assign(st.num_windows, 0);
    std::vector<std::vector<CommGraph::FlatEdge>> staged(st.num_windows);
    for (size_t w = 0; w < st.num_windows; ++w) {
      staged[w].reserve(st.window_counts[w]);
    }
    for (const TraceEvent& e : st.events) {
      const size_t w = WindowOf(e.time);
      if (e.src >= num_nodes || e.dst >= num_nodes ||
          !std::isfinite(e.weight) || e.weight <= 0.0) {
        ++st.dropped;
        continue;
      }
      staged[w].push_back({e.src, e.dst, e.weight});
      ++st.events_per_window[w];
    }
    st.events.clear();
    st.events.shrink_to_fit();

    st.aggregated.assign(st.num_windows, {});
    for (size_t w = 0; w < st.num_windows; ++w) {
      std::vector<CommGraph::FlatEdge>& edges = staged[w];
      std::stable_sort(edges.begin(), edges.end(),
                       [](const CommGraph::FlatEdge& a,
                          const CommGraph::FlatEdge& b) {
                         return a.src != b.src ? a.src < b.src
                                               : a.dst < b.dst;
                       });
      std::vector<CommGraph::FlatEdge>& out = st.aggregated[w];
      for (size_t i = 0; i < edges.size();) {
        const NodeId src = edges[i].src;
        const NodeId dst = edges[i].dst;
        double weight = 0.0;
        for (; i < edges.size() && edges[i].src == src && edges[i].dst == dst;
             ++i) {
          weight += edges[i].weight;
        }
        out.push_back({src, dst, weight});
      }
    }
  }

  void Shutdown() {
    if (shut_down_) return;
    shut_down_ = true;
    for (ShardState& st : states_) Flush(st);
    for (ShardState& st : states_) st.queue->Close();
    for (ShardState& st : states_) {
      if (st.thread.joinable()) st.thread.join();
      st.free_queue->Close();
    }
  }

  size_t shards_;
  uint64_t window_length_;
  uint64_t start_time_;
  std::atomic<size_t> num_nodes_{0};
  std::vector<ShardState> states_;
  bool shut_down_ = false;
};

RowFormat ToRowFormat(PipelineFormat format) {
  return format == PipelineFormat::kNetflowV5 ? RowFormat::kNetflow
                                              : RowFormat::kTrace;
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

Result<std::vector<TraceEvent>> ReadTraceEventsPipelined(
    const std::string& path, PipelineFormat format, Interner& interner,
    const PipelineOptions& options, PipelineStats* stats) {
  std::vector<TraceEvent> events;
  EventsSink sink{events};
  Status s =
      RunPipeline(path, ToRowFormat(format), interner, options, sink, stats);
  if (!s.ok()) return s;
  return events;
}

Result<CommGraph> ReadEdgeListPipelined(const std::string& path,
                                        Interner& interner,
                                        NodeId bipartite_left_size,
                                        const PipelineOptions& options,
                                        PipelineStats* stats) {
  EdgeRowsSink sink;
  Status s =
      RunPipeline(path, RowFormat::kEdge, interner, options, sink, stats);
  if (!s.ok()) return s;
  GraphBuilder builder(interner.size());
  builder.SetBipartiteLeftSize(bipartite_left_size);
  builder.Reserve(sink.rows.size());
  for (const CommGraph::FlatEdge& r : sink.rows) {
    builder.AddEdge(r.src, r.dst, r.weight);
  }
  return std::move(builder).Build();
}

Result<SignatureSet> ReadSignatureSetPipelined(const std::string& path,
                                               Interner& interner,
                                               const PipelineOptions& options,
                                               PipelineStats* stats) {
  SignatureRowsSink sink;
  Status s =
      RunPipeline(path, RowFormat::kSignature, interner, options, sink, stats);
  if (!s.ok()) return s;
  SignatureSet set;
  for (NodeId owner : sink.order) {
    set.owners.push_back(owner);
    auto& e = sink.entries[owner];
    const size_t k = e.size();
    set.signatures.push_back(Signature::FromTopK(std::move(e), k));
  }
  return set;
}

Result<std::vector<CommGraph>> ReadWindowsPipelined(
    const std::string& path, PipelineFormat format, Interner& interner,
    const WindowedReadOptions& window_options, const PipelineOptions& options,
    PipelineStats* stats) {
  const size_t shards =
      window_options.shards > 0
          ? window_options.shards
          : static_cast<size_t>(std::max(options.parse_workers, 1));
  ShardedWindowSink sink(shards, std::max<size_t>(options.queue_capacity, 1),
                         window_options.window_length,
                         window_options.start_time);
  Status s =
      RunPipeline(path, ToRowFormat(format), interner, options, sink, stats);
  if (!s.ok()) return s;  // the sink destructor unwinds the shard stage
  std::vector<CommGraph> graphs = sink.FinishAndBuild(
      interner.size(), window_options.bipartite_left_size);
  if (stats != nullptr) {
    stats->producer_stalls += sink.producer_stalls();
    stats->consumer_stalls += sink.consumer_stalls();
  }
  return graphs;
}

}  // namespace commsig::ingest

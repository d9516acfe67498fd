// Checkpoint wire-format round-trips for every serializable component, plus
// adversarial decoding: every FromBytes must return Corruption — never
// crash, hang, or over-allocate — on truncated or bit-flipped bytes.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/result.h"
#include "graph/windower.h"
#include "sketch/count_min.h"
#include "sketch/fm_sketch.h"
#include "sketch/space_saving.h"
#include "sketch/streaming_signatures.h"

namespace commsig {
namespace {

// Serialized bytes with every prefix truncation and a bit flip in every
// byte, fed back through `decode`. Exercises the bounds checks; the decoder
// may legitimately accept some flipped payloads (a flipped counter value is
// still well-formed), so this asserts "no crash", not "always rejected".
template <typename Decode>
void FuzzBytes(const std::string& bytes, Decode decode) {
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string truncated = bytes.substr(0, len);
    ByteReader in(truncated);
    decode(in);
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
    ByteReader in(flipped);
    decode(in);
  }
}

TEST(ByteRoundTrip, PrimitivesAndCrc) {
  ByteWriter out;
  out.PutU8(7);
  out.PutU32(0xdeadbeef);
  out.PutU64(1ull << 60);
  out.PutDouble(-2.5);
  out.PutString("payload");
  ByteReader in(out.bytes());
  EXPECT_EQ(*in.U8(), 7u);
  EXPECT_EQ(*in.U32(), 0xdeadbeefu);
  EXPECT_EQ(*in.U64(), 1ull << 60);
  EXPECT_DOUBLE_EQ(*in.Double(), -2.5);
  EXPECT_EQ(*in.String(), "payload");
  EXPECT_TRUE(in.AtEnd());

  // CRC32 check value from the IEEE 802.3 specification.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_NE(Crc32("123456789"), Crc32("123456788"));
}

TEST(ByteRoundTrip, ReadsPastEndAreCorruption) {
  ByteWriter out;
  out.PutU32(5);
  ByteReader in(out.bytes());
  ASSERT_TRUE(in.U32().ok());
  auto r = in.U64();
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(ByteRoundTrip, OversizedStringLengthRejected) {
  ByteWriter out;
  out.PutU64(1ull << 40);  // length prefix far past the buffer
  out.PutU32(0);
  ByteReader in(out.bytes());
  EXPECT_TRUE(in.String().status().IsCorruption());
}

TEST(CountMinRoundTrip, PreservesEstimates) {
  CountMinSketch sketch(128, 4, 77);
  for (uint64_t key = 0; key < 500; ++key) {
    sketch.Add(key, static_cast<double>(key % 7 + 1));
  }
  ByteWriter out;
  sketch.AppendTo(out);
  ByteReader in(out.bytes());
  auto restored = CountMinSketch::FromBytes(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(in.AtEnd());
  EXPECT_DOUBLE_EQ(restored->TotalCount(), sketch.TotalCount());
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_DOUBLE_EQ(restored->Estimate(key), sketch.Estimate(key));
  }
}

TEST(CountMinRoundTrip, CorruptBytesRejectedNotCrashed) {
  CountMinSketch sketch(16, 2, 1);
  sketch.Add(42, 3.0);
  ByteWriter out;
  sketch.AppendTo(out);
  FuzzBytes(out.bytes(), [](ByteReader& in) {
    Result<CountMinSketch> r = CountMinSketch::FromBytes(in);
    // A flipped payload may still decode; a salvaged sketch must be usable.
    if (r.ok()) r.value().Estimate(42);
  });
  // A dimension header promising more cells than the buffer holds must be
  // rejected up front, not discovered via out-of-bounds reads.
  ByteWriter huge;
  huge.PutU64(1ull << 32);  // width
  huge.PutU64(1ull << 32);  // depth: width*depth overflows size_t math
  huge.PutU64(0);
  huge.PutDouble(0.0);
  ByteReader in(huge.bytes());
  EXPECT_TRUE(CountMinSketch::FromBytes(in).status().IsCorruption());
}

TEST(FmSketchRoundTrip, PreservesEstimate) {
  FmSketch sketch(64, 9);
  for (uint64_t item = 0; item < 1000; ++item) sketch.Add(item);
  ByteWriter out;
  sketch.AppendTo(out);
  ByteReader in(out.bytes());
  auto restored = FmSketch::FromBytes(in);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(in.AtEnd());
  EXPECT_DOUBLE_EQ(restored->Estimate(), sketch.Estimate());
}

TEST(FmSketchRoundTrip, CorruptBytesRejectedNotCrashed) {
  FmSketch sketch(8, 2);
  sketch.Add(5);
  ByteWriter out;
  sketch.AppendTo(out);
  FuzzBytes(out.bytes(), [](ByteReader& in) {
    Result<FmSketch> r = FmSketch::FromBytes(in);
    if (r.ok()) r.value().Estimate();
  });
}

TEST(SpaceSavingRoundTrip, PreservesItemsAndDeterministicBytes) {
  SpaceSaving summary(8);
  for (uint64_t key = 0; key < 40; ++key) {
    summary.Add(key % 12, static_cast<double>(key + 1));
  }
  ByteWriter out;
  summary.AppendTo(out);
  ByteReader in(out.bytes());
  auto restored = SpaceSaving::FromBytes(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(in.AtEnd());
  EXPECT_DOUBLE_EQ(restored->TotalWeight(), summary.TotalWeight());
  auto a = summary.Items();
  auto b = restored->Items();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_DOUBLE_EQ(a[i].count, b[i].count);
    EXPECT_DOUBLE_EQ(a[i].error, b[i].error);
  }
  // Unordered-map internals must not leak into the bytes: re-serializing
  // the restored copy gives identical bytes.
  ByteWriter again;
  restored->AppendTo(again);
  EXPECT_EQ(out.bytes(), again.bytes());
}

TEST(SpaceSavingRoundTrip, RestoredCopyEvictsTheSameTiedKey) {
  // Unit weights tie every count. Which tied key a full summary evicts must
  // follow from its contents alone, not from hash-map iteration order,
  // which a restore does not reproduce.
  SpaceSaving summary(4);
  for (uint64_t key : {4, 3, 2, 1}) summary.Add(key, 1.0);
  ByteWriter out;
  summary.AppendTo(out);
  ByteReader in(out.bytes());
  auto restored = SpaceSaving::FromBytes(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  summary.Add(5, 1.0);
  restored->Add(5, 1.0);
  auto keys = [](const SpaceSaving& s) {
    std::vector<uint64_t> kept;
    for (const SpaceSaving::Item& item : s.Items()) kept.push_back(item.key);
    return kept;
  };
  EXPECT_EQ(keys(summary), keys(*restored));
  EXPECT_EQ(keys(summary), (std::vector<uint64_t>{5, 2, 3, 4}));
}

TEST(SpaceSavingRoundTrip, CorruptBytesRejectedNotCrashed) {
  SpaceSaving summary(4);
  summary.Add(1, 2.0);
  summary.Add(2, 1.0);
  ByteWriter out;
  summary.AppendTo(out);
  FuzzBytes(out.bytes(), [](ByteReader& in) {
    Result<SpaceSaving> r = SpaceSaving::FromBytes(in);
    if (r.ok()) r.value().Items();
  });
}

TEST(StreamingBuilderRoundTrip, RestoredBuilderContinuesIdentically) {
  StreamingSignatureBuilder::Options opts;
  opts.heavy_hitter_capacity = 16;
  opts.cm_width = 256;
  opts.cm_depth = 3;
  opts.fm_bitmaps = 16;
  std::vector<NodeId> focal = {0, 1, 2};
  StreamingSignatureBuilder reference(focal, opts);
  StreamingSignatureBuilder half(focal, opts);

  std::vector<TraceEvent> events;
  for (uint64_t i = 0; i < 2000; ++i) {
    events.push_back({static_cast<NodeId>(i % 5),
                      static_cast<NodeId>(5 + i * 7 % 40), i,
                      1.0 + static_cast<double>(i % 3)});
  }
  reference.ObserveAll(events);
  for (size_t i = 0; i < 1000; ++i) half.Observe(events[i]);

  // Snapshot mid-stream, restore, replay the rest.
  ByteWriter out;
  half.AppendTo(out);
  ByteReader in(out.bytes());
  auto restored = StreamingSignatureBuilder::FromBytes(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(restored->events_observed(), 1000u);
  for (size_t i = 1000; i < events.size(); ++i) {
    restored->Observe(events[i]);
  }

  EXPECT_EQ(restored->events_observed(), reference.events_observed());
  for (NodeId v : focal) {
    Signature ref_tt = reference.TopTalkers(v, 8);
    Signature got_tt = restored->TopTalkers(v, 8);
    ASSERT_EQ(ref_tt.size(), got_tt.size());
    for (size_t i = 0; i < ref_tt.size(); ++i) {
      EXPECT_EQ(ref_tt.entries()[i].node, got_tt.entries()[i].node);
      EXPECT_DOUBLE_EQ(ref_tt.entries()[i].weight,
                       got_tt.entries()[i].weight);
    }
    Signature ref_ut = reference.UnexpectedTalkers(v, 8);
    Signature got_ut = restored->UnexpectedTalkers(v, 8);
    ASSERT_EQ(ref_ut.size(), got_ut.size());
    for (size_t i = 0; i < ref_ut.size(); ++i) {
      EXPECT_EQ(ref_ut.entries()[i].node, got_ut.entries()[i].node);
    }
  }
}

TEST(StreamingBuilderRoundTrip, SerializationIsDeterministic) {
  StreamingSignatureBuilder::Options opts;
  opts.heavy_hitter_capacity = 8;
  opts.cm_width = 64;
  opts.cm_depth = 2;
  opts.fm_bitmaps = 8;
  StreamingSignatureBuilder a({0, 1}, opts);
  StreamingSignatureBuilder b({0, 1}, opts);
  for (uint64_t i = 0; i < 300; ++i) {
    TraceEvent e{static_cast<NodeId>(i % 3), static_cast<NodeId>(3 + i % 9),
                 i, 2.0};
    a.Observe(e);
    b.Observe(e);
  }
  ByteWriter wa, wb;
  a.AppendTo(wa);
  b.AppendTo(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(StreamingBuilderRoundTrip, CorruptBytesRejectedNotCrashed) {
  StreamingSignatureBuilder::Options opts;
  opts.heavy_hitter_capacity = 4;
  opts.cm_width = 16;
  opts.cm_depth = 2;
  opts.fm_bitmaps = 4;
  StreamingSignatureBuilder builder({0}, opts);
  for (uint64_t i = 0; i < 50; ++i) {
    builder.Observe({0, static_cast<NodeId>(1 + i % 6), i, 1.0});
  }
  ByteWriter out;
  builder.AppendTo(out);
  FuzzBytes(out.bytes(), [](ByteReader& in) {
    Result<StreamingSignatureBuilder> r =
        StreamingSignatureBuilder::FromBytes(in);
    if (r.ok()) r.value().MemoryBytes();
  });
}

}  // namespace
}  // namespace commsig

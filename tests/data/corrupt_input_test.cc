// Exercises every reader against the committed corrupt-input corpus under
// tests/data/corpus/, in all three ErrorPolicy modes. The corpus files are
// real bytes on disk (not strings built in the test) so the fixtures also
// pin the on-disk formats against accidental format drift. Every read runs
// the ingestion pipeline at each worker count in ref::kReaderWorkers with
// 64-byte chunks, so each rejection class crosses a chunk boundary.

#include <string>

#include <gtest/gtest.h>

#include "ingest/pipeline.h"
#include "ref/readers.h"
#include "robust/record_errors.h"

namespace commsig {
namespace {

std::string Corpus(const std::string& name) {
  return std::string(COMMSIG_TEST_DATA_DIR) + "/" + name;
}

IngestOptions Policy(ErrorPolicy policy, RecordErrorLog* log = nullptr) {
  IngestOptions opts;
  opts.policy = policy;
  opts.error_log = log;
  return opts;
}

Result<std::vector<TraceEvent>> ReadNetflow(const std::string& name,
                                            int workers,
                                            const IngestOptions& opts = {}) {
  Interner interner;
  return ingest::ReadTraceEventsPipelined(
      Corpus(name), ingest::PipelineFormat::kNetflowV5, interner,
      ref::SmallChunks(workers, opts));
}

Result<std::vector<TraceEvent>> ReadTrace(const std::string& name, int workers,
                                          const IngestOptions& opts = {}) {
  Interner interner;
  return ingest::ReadTraceEventsPipelined(
      Corpus(name), ingest::PipelineFormat::kTraceCsv, interner,
      ref::SmallChunks(workers, opts));
}

// --- NetFlow -------------------------------------------------------------

TEST(CorruptNetflow, TruncatedFailsUnderFailPolicy) {
  for (int workers : ref::kReaderWorkers) {
    auto r = ReadNetflow("truncated.nf", workers);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

TEST(CorruptNetflow, TruncatedSalvagesWholeRecordsUnderSkip) {
  for (int workers : ref::kReaderWorkers) {
    auto r = ReadNetflow("truncated.nf", workers, Policy(ErrorPolicy::kSkip));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Header claims 3 records; the third is cut mid-record.
    EXPECT_EQ(r->size(), 2u);
  }
}

TEST(CorruptNetflow, TruncatedQuarantinesTheCut) {
  for (int workers : ref::kReaderWorkers) {
    RecordErrorLog log;
    auto r = ReadNetflow("truncated.nf", workers,
                         Policy(ErrorPolicy::kQuarantine, &log));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(log.count(RecordErrorReason::kTruncated), 1u);
    ASSERT_EQ(log.entries().size(), 1u);
    // Position is the byte offset where the truncated record begins.
    EXPECT_EQ(log.entries()[0].position, 24u + 2 * 48u);
  }
}

TEST(CorruptNetflow, BadMagicResynchronizesToNextPacket) {
  for (int workers : ref::kReaderWorkers) {
    RecordErrorLog log;
    auto r = ReadNetflow("bad_magic.nf", workers,
                         Policy(ErrorPolicy::kQuarantine, &log));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Garbage prefix rejected, valid 2-record packet after it recovered.
    EXPECT_EQ(r->size(), 2u);
    EXPECT_EQ(log.count(RecordErrorReason::kBadMagic), 1u);
    EXPECT_FALSE(ReadNetflow("bad_magic.nf", workers).ok());
  }
}

TEST(CorruptNetflow, ZeroCountHeaderRejectedAndRecovered) {
  for (int workers : ref::kReaderWorkers) {
    RecordErrorLog log;
    auto r = ReadNetflow("zero_count.nf", workers,
                         Policy(ErrorPolicy::kQuarantine, &log));
    ASSERT_TRUE(r.ok());
    // The packet after the count=0 header still loads; the record body of
    // the bad packet is skipped by resynchronization.
    EXPECT_EQ(r->size(), 1u);
    EXPECT_GE(log.count(RecordErrorReason::kBadRecordCount), 1u);
  }
}

TEST(CorruptNetflow, TimestampRegressionOnlyWhenMonotonicRequired) {
  for (int workers : ref::kReaderWorkers) {
    // Default: out-of-order export times are legal.
    auto relaxed = ReadNetflow("time_regression.nf", workers,
                               Policy(ErrorPolicy::kSkip));
    ASSERT_TRUE(relaxed.ok());
    EXPECT_EQ(relaxed->size(), 3u);

    RecordErrorLog log;
    IngestOptions strict = Policy(ErrorPolicy::kQuarantine, &log);
    strict.require_monotonic_time = true;
    auto r = ReadNetflow("time_regression.nf", workers, strict);
    ASSERT_TRUE(r.ok());
    // The regressed middle packet (secs 200 -> 100) is dropped whole; the
    // third (secs 300) still loads.
    EXPECT_EQ(r->size(), 2u);
    EXPECT_EQ(log.count(RecordErrorReason::kTimestampRegression), 1u);
  }
}

TEST(CorruptNetflow, ErrorBudgetBoundsGarbageTolerance) {
  IngestOptions opts = Policy(ErrorPolicy::kSkip);
  opts.max_errors = 0;  // 0 disables the budget: any amount of junk is OK
  for (int workers : ref::kReaderWorkers) {
    EXPECT_TRUE(ReadNetflow("bad_magic.nf", workers, opts).ok());
  }
}

// --- Trace CSV -----------------------------------------------------------

TEST(CorruptTraceCsv, FailPolicyStopsAtFirstBadRow) {
  for (int workers : ref::kReaderWorkers) {
    auto r = ReadTrace("trace_bad_rows.csv", workers);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

TEST(CorruptTraceCsv, SkipKeepsOnlyValidRows) {
  for (int workers : ref::kReaderWorkers) {
    auto r =
        ReadTrace("trace_bad_rows.csv", workers, Policy(ErrorPolicy::kSkip));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Valid rows: a->b@100, a->b@90 (order violations are legal by default),
    // e->f@200.
    EXPECT_EQ(r->size(), 3u);
  }
}

TEST(CorruptTraceCsv, QuarantineRecordsEveryRejectionClass) {
  for (int workers : ref::kReaderWorkers) {
    RecordErrorLog log;
    IngestOptions opts = Policy(ErrorPolicy::kQuarantine, &log);
    opts.require_monotonic_time = true;
    auto r = ReadTrace("trace_bad_rows.csv", workers, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 2u);  // the a->b@90 row now regresses
    EXPECT_EQ(log.count(RecordErrorReason::kBadField), 2u);  // short + bad time
    EXPECT_EQ(log.count(RecordErrorReason::kZeroNode), 1u);
    EXPECT_EQ(log.count(RecordErrorReason::kNonFiniteWeight), 2u);  // nan, inf
    EXPECT_EQ(log.count(RecordErrorReason::kNonPositiveWeight), 2u);  // -3.5, 0
    EXPECT_EQ(log.count(RecordErrorReason::kTimestampRegression), 1u);
    EXPECT_EQ(log.total(), 8u);
  }
}

TEST(CorruptTraceCsv, QuarantinePositionsAreLineNumbers) {
  for (int workers : ref::kReaderWorkers) {
    RecordErrorLog log;
    auto r = ReadTrace("trace_bad_rows.csv", workers,
                       Policy(ErrorPolicy::kQuarantine, &log));
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(log.entries().empty());
    EXPECT_EQ(log.entries()[0].position, 2u);  // "only,three,fields" is line 2
  }
}

TEST(CorruptTraceCsv, GarbageFileYieldsNothingButDoesNotCrash) {
  for (int workers : ref::kReaderWorkers) {
    RecordErrorLog log;
    auto r = ReadTrace("garbage.csv", workers,
                       Policy(ErrorPolicy::kQuarantine, &log));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->empty());
    EXPECT_GT(log.total(), 0u);
  }
}

TEST(CorruptTraceCsv, EmptyFileIsValidAndEmpty) {
  for (int workers : ref::kReaderWorkers) {
    for (ErrorPolicy policy : {ErrorPolicy::kFail, ErrorPolicy::kSkip,
                               ErrorPolicy::kQuarantine}) {
      auto r = ReadTrace("empty.csv", workers, Policy(policy));
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r->empty());
    }
  }
}

TEST(CorruptTraceCsv, ExhaustedBudgetFailsTheRead) {
  IngestOptions opts = Policy(ErrorPolicy::kSkip);
  opts.max_errors = 2;
  for (int workers : ref::kReaderWorkers) {
    auto r = ReadTrace("trace_bad_rows.csv", workers, opts);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption());
  }
}

// --- Edge-list CSV -------------------------------------------------------

TEST(CorruptEdgeListCsv, AllThreePolicies) {
  const std::string path = Corpus("edges_bad_rows.csv");
  for (int workers : ref::kReaderWorkers) {
    {
      Interner interner;
      EXPECT_FALSE(ingest::ReadEdgeListPipelined(path, interner, 0,
                                                 ref::SmallChunks(workers))
                       .ok());
    }
    {
      Interner interner;
      auto r = ingest::ReadEdgeListPipelined(
          path, interner, 0,
          ref::SmallChunks(workers, Policy(ErrorPolicy::kSkip)));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Good rows: a->b 2.0 and c->d 3.0.
      EXPECT_DOUBLE_EQ(r->TotalWeight(), 5.0);
    }
    {
      Interner interner;
      RecordErrorLog log;
      auto r = ingest::ReadEdgeListPipelined(
          path, interner, 0,
          ref::SmallChunks(workers, Policy(ErrorPolicy::kQuarantine, &log)));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(log.count(RecordErrorReason::kBadField), 1u);
      EXPECT_EQ(log.count(RecordErrorReason::kZeroNode), 1u);
      EXPECT_EQ(log.count(RecordErrorReason::kNonFiniteWeight), 1u);
      EXPECT_EQ(log.count(RecordErrorReason::kNonPositiveWeight), 1u);
    }
  }
}

// --- Signature-set CSV ---------------------------------------------------

TEST(CorruptSignatureSetCsv, AllThreePolicies) {
  const std::string path = Corpus("sigset_bad_rows.csv");
  for (int workers : ref::kReaderWorkers) {
    {
      Interner interner;
      EXPECT_FALSE(ingest::ReadSignatureSetPipelined(
                       path, interner, ref::SmallChunks(workers))
                       .ok());
    }
    {
      Interner interner;
      RecordErrorLog log;
      auto r = ingest::ReadSignatureSetPipelined(
          path, interner,
          ref::SmallChunks(workers, Policy(ErrorPolicy::kQuarantine, &log)));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // o1 {m1,m2}, o2 {m4} (nan and negative rows rejected), o3 empty marker.
      ASSERT_EQ(r->size(), 3u);
      EXPECT_EQ(r->signatures[0].size(), 2u);
      EXPECT_EQ(r->signatures[1].size(), 1u);
      EXPECT_TRUE(r->signatures[2].empty());
      EXPECT_EQ(log.count(RecordErrorReason::kBadField), 1u);
      EXPECT_EQ(log.count(RecordErrorReason::kNonFiniteWeight), 1u);
      EXPECT_EQ(log.count(RecordErrorReason::kNonPositiveWeight), 1u);
      EXPECT_EQ(log.count(RecordErrorReason::kZeroNode), 1u);
    }
    {
      Interner interner;
      auto r = ingest::ReadSignatureSetPipelined(
          path, interner,
          ref::SmallChunks(workers, Policy(ErrorPolicy::kSkip)));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->size(), 3u);
    }
  }
}

}  // namespace
}  // namespace commsig

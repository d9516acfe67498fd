#include "robust/record_errors.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace commsig {
namespace {

using robust_internal::HandleBadRecord;

TEST(RecordErrorReasonNameTest, StableNames) {
  EXPECT_EQ(RecordErrorReasonName(RecordErrorReason::kTruncated),
            "truncated");
  EXPECT_EQ(RecordErrorReasonName(RecordErrorReason::kBadMagic), "bad_magic");
  EXPECT_EQ(RecordErrorReasonName(RecordErrorReason::kNonFiniteWeight),
            "non_finite_weight");
}

TEST(RecordErrorLogTest, CountsPerReasonAndTotal) {
  RecordErrorLog log;
  log.Record(RecordErrorReason::kBadField, 1, "x");
  log.Record(RecordErrorReason::kBadField, 2, "y");
  log.Record(RecordErrorReason::kZeroNode, 3, "z");
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.count(RecordErrorReason::kBadField), 2u);
  EXPECT_EQ(log.count(RecordErrorReason::kZeroNode), 1u);
  EXPECT_EQ(log.count(RecordErrorReason::kTruncated), 0u);
  ASSERT_EQ(log.entries().size(), 3u);
  EXPECT_EQ(log.entries()[1].position, 2u);
  EXPECT_EQ(log.entries()[1].detail, "y");
}

TEST(RecordErrorLogTest, RetentionCapKeepsCountersExact) {
  RecordErrorLog log(/*max_retained=*/2);
  for (uint64_t i = 0; i < 10; ++i) {
    log.Record(RecordErrorReason::kBadField, i, "d");
  }
  EXPECT_EQ(log.entries().size(), 2u);  // capped
  EXPECT_EQ(log.total(), 10u);          // counters keep counting
  EXPECT_EQ(log.count(RecordErrorReason::kBadField), 10u);
}

TEST(RecordErrorLogTest, ClearResetsEverything) {
  RecordErrorLog log;
  log.Record(RecordErrorReason::kBadMagic, 0, "");
  log.Clear();
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.count(RecordErrorReason::kBadMagic), 0u);
  EXPECT_TRUE(log.entries().empty());
}

TEST(RecordErrorLogTest, WriteCsvDumpsDeadLetters) {
  RecordErrorLog log;
  log.Record(RecordErrorReason::kNonFiniteWeight, 7, "weight nan");
  auto path = std::filesystem::temp_directory_path() /
              ("commsig_deadletter_" + std::to_string(::getpid()) + ".csv");
  ASSERT_TRUE(log.WriteCsv(path.string()).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("non_finite_weight,7,weight nan"),
            std::string::npos)
      << content.str();
  std::filesystem::remove(path);
}

TEST(HandleBadRecordTest, FailPolicyPropagatesImmediately) {
  RecordErrorLog log;
  IngestOptions opts;  // kFail
  opts.error_log = &log;
  uint64_t errors = 0;
  Status s = HandleBadRecord(opts, &errors, RecordErrorReason::kBadField, 3,
                             "boom");
  EXPECT_TRUE(s.IsCorruption());
  Status csv = HandleBadRecord(opts, &errors, RecordErrorReason::kBadField, 3,
                               "boom", /*invalid_argument_on_fail=*/true);
  EXPECT_TRUE(csv.IsInvalidArgument());
  // The log holds what skip dropped; under kFail the read itself fails.
  EXPECT_EQ(log.total(), 0u);
}

TEST(HandleBadRecordTest, SkipPolicyContinuesUntilBudgetExhausted) {
  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  opts.max_errors = 3;
  uint64_t errors = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(HandleBadRecord(opts, &errors, RecordErrorReason::kBadField,
                                i, "d")
                    .ok());
  }
  Status s =
      HandleBadRecord(opts, &errors, RecordErrorReason::kBadField, 3, "d");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(HandleBadRecordTest, ZeroBudgetMeansUnlimited) {
  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  opts.max_errors = 0;
  uint64_t errors = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(HandleBadRecord(opts, &errors, RecordErrorReason::kBadField,
                                i, "d")
                    .ok());
  }
}

TEST(HandleBadRecordTest, QuarantineFeedsTheLog) {
  RecordErrorLog log;
  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  opts.error_log = &log;
  uint64_t errors = 0;
  EXPECT_TRUE(HandleBadRecord(opts, &errors, RecordErrorReason::kZeroNode, 9,
                              "empty label")
                  .ok());
  EXPECT_EQ(log.total(), 1u);
  EXPECT_EQ(log.entries()[0].position, 9u);
}

TEST(GlobalErrorBudgetTest, SharedAcrossReaders) {
  // The run-wide budget (--max-total-errors) is charged across readers even
  // when each stays under its own per-file limit: two files can absorb two
  // rejections total, and the third — wherever it lands — stops the run.
  GlobalErrorBudget budget;
  budget.max_total_errors = 2;

  IngestOptions file_a;
  file_a.policy = ErrorPolicy::kSkip;
  file_a.max_errors = 0;  // per-file budget unlimited
  file_a.global_budget = &budget;
  IngestOptions file_b = file_a;

  uint64_t errors_a = 0;
  uint64_t errors_b = 0;
  EXPECT_TRUE(HandleBadRecord(file_a, &errors_a,
                              RecordErrorReason::kBadField, 1, "d")
                  .ok());
  EXPECT_TRUE(HandleBadRecord(file_b, &errors_b,
                              RecordErrorReason::kBadField, 1, "d")
                  .ok());
  EXPECT_FALSE(budget.exhausted());

  Status s = HandleBadRecord(file_b, &errors_b,
                             RecordErrorReason::kTruncated, 2, "d");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("global error budget exhausted"),
            std::string::npos)
      << s.ToString();
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.total, 3u);
}

TEST(GlobalErrorBudgetTest, ZeroDisablesTheBudget) {
  GlobalErrorBudget budget;  // max_total_errors = 0
  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  opts.max_errors = 0;
  opts.global_budget = &budget;
  uint64_t errors = 0;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(HandleBadRecord(opts, &errors,
                                RecordErrorReason::kBadField, i, "d")
                    .ok());
  }
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.total, 500u);
}

TEST(GlobalErrorBudgetTest, KFailStillFailsFirstWithoutCharging) {
  GlobalErrorBudget budget;
  budget.max_total_errors = 10;
  IngestOptions opts;  // policy = kFail
  opts.global_budget = &budget;
  uint64_t errors = 0;
  Status s =
      HandleBadRecord(opts, &errors, RecordErrorReason::kBadField, 0, "d");
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(budget.total, 0u);  // kFail aborts before the budget is charged
}

}  // namespace
}  // namespace commsig

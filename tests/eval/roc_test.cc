#include "eval/roc.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"

namespace commsig {
namespace {

TEST(RocTest, PerfectRankingGivesAucOne) {
  // Relevant item has the smallest distance.
  std::vector<double> scores = {0.1, 0.5, 0.6, 0.9};
  std::vector<bool> relevant = {true, false, false, false};
  RocResult r = ComputeRoc(scores, relevant);
  EXPECT_DOUBLE_EQ(r.auc, 1.0);
}

TEST(RocTest, WorstRankingGivesAucZero) {
  std::vector<double> scores = {0.9, 0.1, 0.2, 0.3};
  std::vector<bool> relevant = {true, false, false, false};
  EXPECT_DOUBLE_EQ(ComputeAuc(scores, relevant), 0.0);
}

TEST(RocTest, MiddleRankGivesFractionalAuc) {
  // Relevant ranks 3rd of 5 (2 irrelevant better, 2 worse): AUC = 2/4.
  std::vector<double> scores = {0.5, 0.1, 0.2, 0.8, 0.9};
  std::vector<bool> relevant = {true, false, false, false, false};
  EXPECT_DOUBLE_EQ(ComputeAuc(scores, relevant), 0.5);
}

TEST(RocTest, AllTiedGivesHalf) {
  std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  std::vector<bool> relevant = {true, false, true, false};
  EXPECT_DOUBLE_EQ(ComputeAuc(scores, relevant), 0.5);
}

TEST(RocTest, TieWithRelevantCountsHalf) {
  // One relevant tied with one irrelevant, one irrelevant clearly worse:
  // AUC = (0.5 + 1) / 2.
  std::vector<double> scores = {0.3, 0.3, 0.9};
  std::vector<bool> relevant = {true, false, false};
  EXPECT_DOUBLE_EQ(ComputeAuc(scores, relevant), 0.75);
}

TEST(RocTest, OrderIndependentUnderTies) {
  std::vector<double> scores1 = {0.3, 0.3, 0.9};
  std::vector<bool> rel1 = {true, false, false};
  std::vector<double> scores2 = {0.3, 0.3, 0.9};
  std::vector<bool> rel2 = {false, true, false};
  EXPECT_DOUBLE_EQ(ComputeAuc(scores1, rel1), ComputeAuc(scores2, rel2));
}

TEST(RocTest, NanScoresRankLastAsOneTieGroup) {
  // NaN == NaN is false, so a tie group opened at a NaN once never closed.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> scores = {nan, 0.2, nan, 0.5, nan};
  const std::vector<bool> relevant = {true, false, false, true, false};
  const RocResult r = ComputeRoc(scores, relevant);
  // 0.2 (irrelevant), 0.5 (relevant), then the three NaNs as one group.
  ASSERT_EQ(r.curve.size(), 4u);
  EXPECT_DOUBLE_EQ(r.curve[1].fpr, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.curve[1].tpr, 0.0);
  EXPECT_DOUBLE_EQ(r.curve[2].fpr, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.curve[2].tpr, 0.5);
  EXPECT_DOUBLE_EQ(r.curve[3].fpr, 1.0);
  EXPECT_DOUBLE_EQ(r.curve[3].tpr, 1.0);
  // Mann-Whitney: 3 of the 6 relevant/irrelevant pairs, ties at half.
  EXPECT_DOUBLE_EQ(r.auc, 0.5);
}

TEST(RocTest, DegenerateClassesGiveHalf) {
  EXPECT_DOUBLE_EQ(ComputeAuc({0.1, 0.2}, {true, true}), 0.5);
  EXPECT_DOUBLE_EQ(ComputeAuc({0.1, 0.2}, {false, false}), 0.5);
  EXPECT_DOUBLE_EQ(ComputeAuc({}, {}), 0.5);
}

TEST(RocTest, CurveStartsAtOriginEndsAtOne) {
  std::vector<double> scores = {0.2, 0.4, 0.1, 0.9};
  std::vector<bool> relevant = {true, false, true, false};
  RocResult r = ComputeRoc(scores, relevant);
  ASSERT_GE(r.curve.size(), 2u);
  EXPECT_DOUBLE_EQ(r.curve.front().fpr, 0.0);
  EXPECT_DOUBLE_EQ(r.curve.front().tpr, 0.0);
  EXPECT_NEAR(r.curve.back().fpr, 1.0, 1e-12);
  EXPECT_NEAR(r.curve.back().tpr, 1.0, 1e-12);
}

TEST(RocTest, CurveIsMonotone) {
  Rng rng(1);
  std::vector<double> scores;
  std::vector<bool> relevant;
  for (int i = 0; i < 200; ++i) {
    scores.push_back(rng.UniformDouble());
    relevant.push_back(rng.Bernoulli(0.2));
  }
  RocResult r = ComputeRoc(scores, relevant);
  for (size_t i = 1; i < r.curve.size(); ++i) {
    EXPECT_GE(r.curve[i].fpr + 1e-12, r.curve[i - 1].fpr);
    EXPECT_GE(r.curve[i].tpr + 1e-12, r.curve[i - 1].tpr);
  }
}

TEST(RocTest, RandomScoresGiveAucNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> scores;
    std::vector<bool> relevant;
    for (int i = 0; i < 100; ++i) {
      scores.push_back(rng.UniformDouble());
      relevant.push_back(i < 10);
    }
    sum += ComputeAuc(scores, relevant);
  }
  EXPECT_NEAR(sum / kTrials, 0.5, 0.03);
}

TEST(RocTest, MultipleRelevantStepsUpFractionally) {
  // 2 relevant at the top of 4: AUC = 1.
  std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  std::vector<bool> relevant = {true, true, false, false};
  EXPECT_DOUBLE_EQ(ComputeAuc(scores, relevant), 1.0);
}

TEST(AverageRocTest, SingleCurvePassesThrough) {
  std::vector<double> scores = {0.1, 0.5, 0.9};
  std::vector<bool> relevant = {true, false, false};
  auto avg = AverageRocCurves({ComputeRoc(scores, relevant)}, 11);
  ASSERT_EQ(avg.size(), 11u);
  // Perfect curve: tpr = 1 at every positive fpr.
  EXPECT_DOUBLE_EQ(avg.back().tpr, 1.0);
  EXPECT_DOUBLE_EQ(avg[5].tpr, 1.0);
}

TEST(AverageRocTest, AveragesTwoCurves) {
  RocResult perfect = ComputeRoc({0.1, 0.5, 0.9}, {true, false, false});
  RocResult worst = ComputeRoc({0.9, 0.1, 0.2}, {true, false, false});
  auto avg = AverageRocCurves({perfect, worst}, 3);
  // At fpr=1 both reach tpr=1.
  EXPECT_DOUBLE_EQ(avg.back().tpr, 1.0);
  // At fpr=0.5: perfect=1, worst=0 -> mean 0.5.
  EXPECT_NEAR(avg[1].tpr, 0.5, 1e-9);
}

TEST(AverageRocTest, EmptyInputGivesFlatGrid) {
  auto avg = AverageRocCurves({}, 5);
  ASSERT_EQ(avg.size(), 5u);
  for (const auto& p : avg) EXPECT_DOUBLE_EQ(p.tpr, 0.0);
}

TEST(MeanAucTest, AveragesAucs) {
  RocResult a, b;
  a.auc = 0.8;
  b.auc = 0.6;
  EXPECT_DOUBLE_EQ(MeanAuc({a, b}), 0.7);
  EXPECT_DOUBLE_EQ(MeanAuc({}), 0.5);
}

}  // namespace
}  // namespace commsig

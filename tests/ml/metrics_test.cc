#include "src/ml/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(MisclassificationTest, CountsSignDisagreements) {
  MisclassificationRate metric;
  EXPECT_DOUBLE_EQ(metric.Value(), 0.0);  // empty
  metric.Add(0.7, 1.0);    // correct
  metric.Add(-0.2, 1.0);   // wrong
  metric.Add(-3.0, -1.0);  // correct
  metric.Add(0.1, -1.0);   // wrong
  EXPECT_EQ(metric.Count(), 4);
  EXPECT_DOUBLE_EQ(metric.Value(), 0.5);
}

TEST(MisclassificationTest, MarginZeroCountsAsPositive) {
  MisclassificationRate metric;
  metric.Add(0.0, 1.0);
  EXPECT_DOUBLE_EQ(metric.Value(), 0.0);
  metric.Add(0.0, -1.0);
  EXPECT_DOUBLE_EQ(metric.Value(), 0.5);
}

TEST(MisclassificationTest, AggregateMassIsTheErrorCount) {
  // (15 / 22) * 22 is 14.999999999999998; the mass is the count itself, so
  // a chunk's mass difference is a whole number of errors.
  MisclassificationRate metric;
  for (int i = 0; i < 22; ++i) metric.Add(1.0, i < 15 ? -1.0 : 1.0);
  EXPECT_EQ(metric.AggregateMass(), 15.0);
  EXPECT_EQ(metric.Value(), 15.0 / 22.0);
}

TEST(RmseTest, MatchesClosedForm) {
  Rmse metric;
  metric.Add(1.0, 3.0);  // err 2
  metric.Add(5.0, 1.0);  // err 4
  EXPECT_DOUBLE_EQ(metric.Value(), std::sqrt((4.0 + 16.0) / 2.0));
}

TEST(RmseTest, PerfectPredictionsGiveZero) {
  Rmse metric;
  for (int i = 0; i < 5; ++i) metric.Add(i, i);
  EXPECT_DOUBLE_EQ(metric.Value(), 0.0);
}

template <typename M>
void CheckResetAndClone() {
  M metric;
  metric.Add(1.0, -1.0);
  metric.Add(0.5, 1.0);
  auto clone = metric.Clone();
  EXPECT_EQ(clone->Count(), metric.Count());
  EXPECT_DOUBLE_EQ(clone->Value(), metric.Value());
  clone->Add(9.0, -9.0);
  EXPECT_NE(clone->Count(), metric.Count());
  metric.Reset();
  EXPECT_EQ(metric.Count(), 0);
  EXPECT_DOUBLE_EQ(metric.Value(), 0.0);
}

TEST(MetricCommonTest, ResetAndCloneForAllMetrics) {
  CheckResetAndClone<MisclassificationRate>();
  CheckResetAndClone<Rmse>();
}

TEST(MetricCommonTest, Names) {
  EXPECT_EQ(MisclassificationRate().name(), "misclassification");
  EXPECT_EQ(Rmse().name(), "rmse");
}

}  // namespace
}  // namespace cdpipe

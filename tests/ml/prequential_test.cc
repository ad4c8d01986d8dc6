#include "src/ml/prequential.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(PrequentialTest, CumulativeTracksMetric) {
  PrequentialEvaluator eval(std::make_unique<MisclassificationRate>());
  eval.Observe(1.0, 1.0);
  eval.Observe(-1.0, 1.0);
  EXPECT_EQ(eval.Count(), 2);
  EXPECT_DOUBLE_EQ(eval.CumulativeValue(), 0.5);
}

TEST(PrequentialTest, WindowDisabledFallsBackToCumulative) {
  PrequentialEvaluator eval(std::make_unique<MisclassificationRate>(), 0);
  eval.Observe(-1.0, 1.0);
  EXPECT_DOUBLE_EQ(eval.WindowedValue(), eval.CumulativeValue());
}

TEST(PrequentialTest, WindowedForgetsOldErrors) {
  PrequentialEvaluator eval(std::make_unique<MisclassificationRate>(), 100);
  // First 100 observations are all wrong.
  for (int i = 0; i < 100; ++i) eval.Observe(-1.0, 1.0);
  // Next 400 are all right.
  for (int i = 0; i < 400; ++i) eval.Observe(1.0, 1.0);
  EXPECT_NEAR(eval.CumulativeValue(), 0.2, 1e-9);
  EXPECT_LT(eval.WindowedValue(), 0.05);  // the window has moved on
}

TEST(PrequentialTest, WindowedSeesRecentDegradation) {
  PrequentialEvaluator eval(std::make_unique<MisclassificationRate>(), 100);
  for (int i = 0; i < 1000; ++i) eval.Observe(1.0, 1.0);
  for (int i = 0; i < 100; ++i) eval.Observe(-1.0, 1.0);
  EXPECT_LT(eval.CumulativeValue(), 0.15);
  EXPECT_GT(eval.WindowedValue(), 0.6);  // drift visible in the window
}

TEST(PrequentialTest, WindowedRmseIsRmseOfTheWindow) {
  // Window 4 rotates its half-windows after 3 observations: three errors of
  // 2 land in the previous half, one error of 0 in the current one.  The
  // window's RMSE is sqrt((3 * 4 + 0) / 4), not the count-weighted mean of
  // the halves' RMSEs (1.5).
  PrequentialEvaluator eval(std::make_unique<Rmse>(), 4);
  for (int i = 0; i < 3; ++i) eval.Observe(2.0, 0.0);
  eval.Observe(1.0, 1.0);
  EXPECT_DOUBLE_EQ(eval.WindowedValue(), std::sqrt(3.0));
}

TEST(PrequentialTest, EmptyEvaluatorIsZero) {
  PrequentialEvaluator eval(std::make_unique<Rmse>(), 10);
  EXPECT_EQ(eval.Count(), 0);
  EXPECT_DOUBLE_EQ(eval.CumulativeValue(), 0.0);
  EXPECT_DOUBLE_EQ(eval.WindowedValue(), 0.0);
}

}  // namespace
}  // namespace cdpipe

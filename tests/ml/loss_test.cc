#include "src/ml/loss.h"

#include <cmath>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(SquaredLossTest, ValueAndGradient) {
  LossGrad lg = EvalLoss(LossKind::kSquared, 3.0, 1.0);
  EXPECT_DOUBLE_EQ(lg.loss, 2.0);         // 0.5 * 2^2
  EXPECT_DOUBLE_EQ(lg.dloss_dpred, 2.0);  // p - y

  lg = EvalLoss(LossKind::kSquared, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(lg.loss, 0.0);
  EXPECT_DOUBLE_EQ(lg.dloss_dpred, 0.0);
}

TEST(HingeLossTest, CorrectSideOfMarginHasZeroLoss) {
  LossGrad lg = EvalLoss(LossKind::kHinge, 2.0, 1.0);  // margin 2 >= 1
  EXPECT_DOUBLE_EQ(lg.loss, 0.0);
  EXPECT_DOUBLE_EQ(lg.dloss_dpred, 0.0);
  lg = EvalLoss(LossKind::kHinge, -3.0, -1.0);  // margin 3 >= 1
  EXPECT_DOUBLE_EQ(lg.loss, 0.0);
}

TEST(HingeLossTest, InsideMarginPenalized) {
  LossGrad lg = EvalLoss(LossKind::kHinge, 0.5, 1.0);  // margin 0.5
  EXPECT_DOUBLE_EQ(lg.loss, 0.5);
  EXPECT_DOUBLE_EQ(lg.dloss_dpred, -1.0);
  lg = EvalLoss(LossKind::kHinge, 0.5, -1.0);  // wrong side, margin -0.5
  EXPECT_DOUBLE_EQ(lg.loss, 1.5);
  EXPECT_DOUBLE_EQ(lg.dloss_dpred, 1.0);
}

// Property: the analytic gradient matches a central finite difference.
class LossGradientPropertyTest : public ::testing::TestWithParam<LossKind> {};

TEST_P(LossGradientPropertyTest, MatchesFiniteDifference) {
  const LossKind kind = GetParam();
  const double eps = 1e-6;
  for (double label : {-1.0, 1.0, 2.5}) {
    if (kind != LossKind::kSquared && label == 2.5) continue;
    for (double pred : {-2.0, -0.3, 0.0, 0.4, 1.7}) {
      // Skip the hinge kink where the derivative is undefined.
      if (kind == LossKind::kHinge && std::abs(label * pred - 1.0) < 1e-3) {
        continue;
      }
      const double up = EvalLoss(kind, pred + eps, label).loss;
      const double down = EvalLoss(kind, pred - eps, label).loss;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(EvalLoss(kind, pred, label).dloss_dpred, numeric, 1e-5)
          << LossKindName(kind) << " pred=" << pred << " label=" << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossGradientPropertyTest,
                         ::testing::Values(LossKind::kSquared,
                                           LossKind::kHinge));

TEST(LossKindTest, Names) {
  EXPECT_STREQ(LossKindName(LossKind::kSquared), "squared");
  EXPECT_STREQ(LossKindName(LossKind::kHinge), "hinge");
}

}  // namespace
}  // namespace cdpipe

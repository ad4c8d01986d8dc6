#include "src/ml/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

OptimizerOptions OptionsFor(OptimizerKind kind, double lr = 0.1) {
  OptimizerOptions options;
  options.kind = kind;
  options.learning_rate = lr;
  return options;
}

TEST(SgdOptimizerTest, PlainStep) {
  auto opt = MakeOptimizer(OptionsFor(OptimizerKind::kSgd, 0.5));
  DenseVector w(3);
  double bias = 0.0;
  opt->Step({{0, 2.0}, {2, -4.0}}, 1.0, &w, &bias);
  EXPECT_DOUBLE_EQ(w[0], -1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 2.0);
  EXPECT_DOUBLE_EQ(bias, -0.5);
  EXPECT_EQ(opt->step_count(), 1);
}

TEST(MomentumOptimizerTest, VelocityAccumulates) {
  auto opt = MakeOptimizer(OptionsFor(OptimizerKind::kMomentum, 1.0));
  DenseVector w(1);
  double bias = 0.0;
  opt->Step({{0, 1.0}}, 0.0, &w, &bias);  // v = 1, w = -1
  EXPECT_DOUBLE_EQ(w[0], -1.0);
  opt->Step({{0, 1.0}}, 0.0, &w, &bias);  // v = 1.9, w = -2.9
  EXPECT_DOUBLE_EQ(w[0], -2.9);
}

TEST(MomentumOptimizerTest, LazyCatchupMatchesDenseUpdates) {
  // Coordinate 1 gets gradient only at steps 1 and 4; a dense momentum
  // implementation would keep pushing it by the decaying velocity at steps
  // 2 and 3.  The lazy implementation must produce the same weight.
  auto lazy = MakeOptimizer(OptionsFor(OptimizerKind::kMomentum, 0.1));
  DenseVector w_lazy(2);
  double b_lazy = 0.0;
  lazy->Step({{0, 1.0}, {1, 2.0}}, 0.0, &w_lazy, &b_lazy);
  lazy->Step({{0, 1.0}}, 0.0, &w_lazy, &b_lazy);
  lazy->Step({{0, 1.0}}, 0.0, &w_lazy, &b_lazy);
  lazy->Step({{0, 1.0}, {1, 0.5}}, 0.0, &w_lazy, &b_lazy);

  // Dense reference for coordinate 1.
  double v = 0.0;
  double w_ref = 0.0;
  const double gamma = 0.9;
  const double eta = 0.1;
  for (double g : {2.0, 0.0, 0.0, 0.5}) {
    v = gamma * v + eta * g;
    w_ref -= v;
  }
  EXPECT_NEAR(w_lazy[1], w_ref, 1e-12);
}

TEST(AdamOptimizerTest, FirstStepHasLearningRateMagnitude) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  auto opt = MakeOptimizer(OptionsFor(OptimizerKind::kAdam, 0.01));
  DenseVector w(1);
  double bias = 0.0;
  opt->Step({{0, 123.0}}, -7.0, &w, &bias);
  EXPECT_NEAR(w[0], -0.01, 1e-6);
  EXPECT_NEAR(bias, 0.01, 1e-6);
}

TEST(AdamOptimizerTest, AdaptsPerCoordinate) {
  auto opt = MakeOptimizer(OptionsFor(OptimizerKind::kAdam, 0.01));
  DenseVector w(2);
  double bias = 0.0;
  // Coordinate 0 gets consistent large gradients, coordinate 1 small ones;
  // Adam normalizes, so both should move by comparable magnitudes.
  for (int i = 0; i < 10; ++i) {
    opt->Step({{0, 100.0}, {1, 0.001}}, 0.0, &w, &bias);
  }
  EXPECT_GT(std::abs(w[0]), 0.0);
  EXPECT_GT(std::abs(w[1]), 0.0);
  EXPECT_LT(std::abs(w[0]) / std::abs(w[1]), 3.0);
}

TEST(RmspropOptimizerTest, NormalizesByRms) {
  OptimizerOptions options = OptionsFor(OptimizerKind::kRmsprop, 0.1);
  options.rho = 0.0;  // mean_square == g^2 -> update = lr * sign(g)
  auto opt = MakeOptimizer(options);
  DenseVector w(1);
  double bias = 0.0;
  opt->Step({{0, 50.0}}, 0.0, &w, &bias);
  EXPECT_NEAR(w[0], -0.1, 1e-6);
  opt->Step({{0, -50.0}}, 0.0, &w, &bias);
  EXPECT_NEAR(w[0], 0.0, 1e-5);
}

TEST(AdadeltaOptimizerTest, MovesWithoutLearningRate) {
  auto opt = MakeOptimizer(OptionsFor(OptimizerKind::kAdadelta));
  DenseVector w(1);
  double bias = 0.0;
  for (int i = 0; i < 5; ++i) opt->Step({{0, 1.0}}, 1.0, &w, &bias);
  EXPECT_LT(w[0], 0.0);
  EXPECT_LT(bias, 0.0);
}

class OptimizerConvergenceTest
    : public ::testing::TestWithParam<OptimizerKind> {};

// Property: every optimizer minimizes the 1-D quadratic 0.5(w-3)^2.
TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  OptimizerOptions options = OptionsFor(GetParam(), 0.05);
  options.rho = 0.9;
  auto opt = MakeOptimizer(options);
  DenseVector w(1);
  double bias = 0.0;
  for (int i = 0; i < 3000; ++i) {
    opt->Step({{0, w[0] - 3.0}}, 0.0, &w, &bias);
  }
  // AdaDelta converges slowly by design; accept a looser tolerance.
  const double tol = GetParam() == OptimizerKind::kAdadelta ? 1.0 : 0.05;
  EXPECT_NEAR(w[0], 3.0, tol) << OptimizerKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergenceTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kMomentum,
                                           OptimizerKind::kAdam,
                                           OptimizerKind::kRmsprop,
                                           OptimizerKind::kAdadelta));

class OptimizerCloneTest : public ::testing::TestWithParam<OptimizerKind> {};

// Property: Clone carries the adaptation state — the clone and the original
// produce identical updates afterwards (the basis of warm starting).
TEST_P(OptimizerCloneTest, CloneReproducesOriginal) {
  auto original = MakeOptimizer(OptionsFor(GetParam(), 0.1));
  DenseVector w(2);
  double bias = 0.0;
  for (int i = 0; i < 5; ++i) {
    original->Step({{0, 1.0}, {1, -0.5}}, 0.3, &w, &bias);
  }
  auto clone = original->Clone();
  EXPECT_EQ(clone->step_count(), original->step_count());

  DenseVector w1 = w;
  DenseVector w2 = w;
  double b1 = bias;
  double b2 = bias;
  original->Step({{0, 0.7}, {1, 0.2}}, -0.1, &w1, &b1);
  clone->Step({{0, 0.7}, {1, 0.2}}, -0.1, &w2, &b2);
  EXPECT_DOUBLE_EQ(w1[0], w2[0]);
  EXPECT_DOUBLE_EQ(w1[1], w2[1]);
  EXPECT_DOUBLE_EQ(b1, b2);
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerCloneTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kMomentum,
                                           OptimizerKind::kAdam,
                                           OptimizerKind::kRmsprop,
                                           OptimizerKind::kAdadelta));

class OptimizerResetTest : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerResetTest, ResetClearsStepCountAndState) {
  auto opt = MakeOptimizer(OptionsFor(GetParam(), 0.1));
  DenseVector w(1);
  double bias = 0.0;
  opt->Step({{0, 1.0}}, 0.0, &w, &bias);
  opt->Reset();
  EXPECT_EQ(opt->step_count(), 0);

  // After reset, the first update must match a fresh optimizer's.
  auto fresh = MakeOptimizer(OptionsFor(GetParam(), 0.1));
  DenseVector w1(1);
  DenseVector w2(1);
  double b1 = 0.0;
  double b2 = 0.0;
  opt->Step({{0, 2.0}}, 0.0, &w1, &b1);
  fresh->Step({{0, 2.0}}, 0.0, &w2, &b2);
  EXPECT_DOUBLE_EQ(w1[0], w2[0]);
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerResetTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kMomentum,
                                           OptimizerKind::kAdam,
                                           OptimizerKind::kRmsprop,
                                           OptimizerKind::kAdadelta));

TEST(OptimizerTest, GrowsStateForNewCoordinates) {
  auto opt = MakeOptimizer(OptionsFor(OptimizerKind::kAdam, 0.01));
  DenseVector w(1);
  double bias = 0.0;
  opt->Step({{0, 1.0}}, 0.0, &w, &bias);
  // A much larger coordinate appears later (growing feature space).
  w.Resize(1000);
  opt->Step({{999, 1.0}}, 0.0, &w, &bias);
  EXPECT_LT(w[999], 0.0);
}

TEST(OptimizerTest, KindNamesAndFactory) {
  for (OptimizerKind kind :
       {OptimizerKind::kSgd, OptimizerKind::kMomentum, OptimizerKind::kAdam,
        OptimizerKind::kRmsprop, OptimizerKind::kAdadelta}) {
    auto opt = MakeOptimizer(OptionsFor(kind));
    EXPECT_EQ(opt->name(), OptimizerKindName(kind));
  }
}

}  // namespace
}  // namespace cdpipe

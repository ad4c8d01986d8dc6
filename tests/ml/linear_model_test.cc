#include "src/ml/linear_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "tests/spec/gradient_spec.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace {


FeatureData MakeBatch(
    std::vector<std::pair<std::vector<std::pair<uint32_t, double>>, double>>
        rows,
    uint32_t dim) {
  FeatureData out;
  out.dim = dim;
  for (auto& [entries, label] : rows) {
    out.features.push_back(SparseVector::FromUnsorted(dim, std::move(entries)));
    out.labels.push_back(label);
  }
  return out;
}

/// The kernel's gradient over a view of every row of `batch`.
Status GradientOf(const LinearModel& model, const FeatureData& batch,
                  std::vector<GradEntry>* grad, double* bias_grad) {
  return model.ComputeGradient(
      BatchView(batch.dim, testing::RowsOf(batch)), grad, bias_grad);
}

LinearModel::Options RegressionOptions(uint32_t dim, double l2 = 0.0) {
  LinearModel::Options options;
  options.loss = LossKind::kSquared;
  options.l2_reg = l2;
  options.initial_dim = dim;
  return options;
}

TEST(LinearModelTest, PredictIsDotPlusBias) {
  LinearModel model(RegressionOptions(3));
  (*model.mutable_weights())[0] = 2.0;
  (*model.mutable_weights())[2] = -1.0;
  model.set_bias(0.5);
  SparseVector x = SparseVector::FromUnsorted(3, {{0, 1.0}, {2, 3.0}});
  EXPECT_DOUBLE_EQ(model.Predict(x), 2.0 - 3.0 + 0.5);
}

TEST(LinearModelTest, PredictToleratesWiderInput) {
  LinearModel model(RegressionOptions(2));
  (*model.mutable_weights())[1] = 1.0;
  // Input nominally 10-dimensional; dims >= 2 have zero weight.
  SparseVector x = SparseVector::FromUnsorted(10, {{1, 2.0}, {7, 100.0}});
  EXPECT_DOUBLE_EQ(model.Predict(x), 2.0);
}

TEST(LinearModelTest, PredictLabelSignsMargin) {
  LinearModel::Options options;
  options.loss = LossKind::kHinge;
  options.initial_dim = 1;
  LinearModel model(options);
  (*model.mutable_weights())[0] = 1.0;
  EXPECT_DOUBLE_EQ(model.PredictLabel(
                       SparseVector::FromUnsorted(1, {{0, 5.0}})),
                   1.0);
  EXPECT_DOUBLE_EQ(model.PredictLabel(
                       SparseVector::FromUnsorted(1, {{0, -5.0}})),
                   -1.0);
}

TEST(LinearModelTest, GradientOfSquaredLoss) {
  LinearModel model(RegressionOptions(2));
  // w = 0, b = 0; batch: x = (1, 2), y = 3 -> residual -3.
  FeatureData batch = MakeBatch({{{{0, 1.0}, {1, 2.0}}, 3.0}}, 2);
  std::vector<GradEntry> grad;
  double bias_grad = 0.0;
  ASSERT_TRUE(GradientOf(model, batch, &grad, &bias_grad).ok());
  ASSERT_EQ(grad.size(), 2u);
  EXPECT_EQ(grad[0].index, 0u);
  EXPECT_DOUBLE_EQ(grad[0].value, -3.0);
  EXPECT_DOUBLE_EQ(grad[1].value, -6.0);
  EXPECT_DOUBLE_EQ(bias_grad, -3.0);
}

TEST(LinearModelTest, GradientAveragesOverBatch) {
  LinearModel model(RegressionOptions(1));
  FeatureData batch =
      MakeBatch({{{{0, 1.0}}, 2.0}, {{{0, 1.0}}, 4.0}}, 1);
  std::vector<GradEntry> grad;
  double bias_grad = 0.0;
  ASSERT_TRUE(GradientOf(model, batch, &grad, &bias_grad).ok());
  ASSERT_EQ(grad.size(), 1u);
  EXPECT_DOUBLE_EQ(grad[0].value, -3.0);  // mean of (-2, -4)
  EXPECT_DOUBLE_EQ(bias_grad, -3.0);
}

TEST(LinearModelTest, L2RegularizationAddsLambdaW) {
  LinearModel model(RegressionOptions(1, /*l2=*/0.5));
  (*model.mutable_weights())[0] = 2.0;
  // Choose data so the data gradient is zero: x=1, y = prediction.
  FeatureData batch = MakeBatch({{{{0, 1.0}}, 2.0}}, 1);
  std::vector<GradEntry> grad;
  double bias_grad = 0.0;
  ASSERT_TRUE(GradientOf(model, batch, &grad, &bias_grad).ok());
  ASSERT_EQ(grad.size(), 1u);
  EXPECT_DOUBLE_EQ(grad[0].value, 1.0);  // 0 + 0.5 * 2
}

TEST(LinearModelTest, ZeroLossExamplesContributeNothing) {
  LinearModel::Options options;
  options.loss = LossKind::kHinge;
  options.initial_dim = 1;
  LinearModel model(options);
  (*model.mutable_weights())[0] = 10.0;  // margin for x=1,y=1 is 10 >= 1
  FeatureData batch = MakeBatch({{{{0, 1.0}}, 1.0}}, 1);
  std::vector<GradEntry> grad;
  double bias_grad = 0.0;
  ASSERT_TRUE(GradientOf(model, batch, &grad, &bias_grad).ok());
  EXPECT_TRUE(grad.empty());
  EXPECT_DOUBLE_EQ(bias_grad, 0.0);
}

TEST(LinearModelTest, EmptyBatchIsNoOp) {
  LinearModel model(RegressionOptions(2));
  auto opt = MakeOptimizer(OptimizerOptions{});
  FeatureData batch;
  batch.dim = 2;
  ASSERT_TRUE(model.Update(batch, opt.get()).ok());
  EXPECT_EQ(opt->step_count(), 0);
}

TEST(LinearModelTest, UpdateGrowsDimension) {
  LinearModel model(RegressionOptions(1));
  auto opt = MakeOptimizer(OptimizerOptions{});
  FeatureData batch = MakeBatch({{{{6, 1.0}}, 1.0}}, 7);
  ASSERT_TRUE(model.Update(batch, opt.get()).ok());
  EXPECT_EQ(model.dim(), 7u);
  EXPECT_NE(model.weights()[6], 0.0);
}

TEST(LinearModelTest, AverageLoss) {
  LinearModel model(RegressionOptions(1));
  FeatureData batch =
      MakeBatch({{{{0, 1.0}}, 1.0}, {{{0, 1.0}}, 3.0}}, 1);
  // w = 0 -> losses 0.5 and 4.5 -> mean 2.5.
  EXPECT_DOUBLE_EQ(*spec::MeanLoss(model, batch), 2.5);
  FeatureData empty;
  empty.dim = 1;
  EXPECT_FALSE(spec::MeanLoss(model, empty).ok());
}

TEST(LinearModelTest, NoBiasModelKeepsBiasZero) {
  LinearModel::Options options = RegressionOptions(1);
  options.fit_bias = false;
  LinearModel model(options);
  auto opt = MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kSgd,
                                            .learning_rate = 0.1});
  for (int i = 0; i < 20; ++i) {
    FeatureData batch = MakeBatch({{{{0, 1.0}}, 5.0}}, 1);
    ASSERT_TRUE(model.Update(batch, opt.get()).ok());
  }
  EXPECT_DOUBLE_EQ(model.bias(), 0.0);
  EXPECT_GT(model.weights()[0], 1.0);
}

TEST(LinearModelTest, SgdRecoversLinearFunction) {
  // y = 2 x0 - 3 x1 + 1 with small noise; plain SGD should recover it.
  Rng rng(77);
  LinearModel model(RegressionOptions(2));
  auto opt = MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kSgd,
                                            .learning_rate = 0.05});
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::pair<std::vector<std::pair<uint32_t, double>>, double>>
        rows;
    for (int r = 0; r < 8; ++r) {
      const double x0 = rng.NextGaussian();
      const double x1 = rng.NextGaussian();
      const double y = 2 * x0 - 3 * x1 + 1 + rng.NextGaussian(0.0, 0.01);
      rows.push_back({{{0, x0}, {1, x1}}, y});
    }
    FeatureData batch = MakeBatch(std::move(rows), 2);
    ASSERT_TRUE(model.Update(batch, opt.get()).ok());
  }
  EXPECT_NEAR(model.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -3.0, 0.05);
  EXPECT_NEAR(model.bias(), 1.0, 0.05);
}

TEST(LinearModelTest, HingeSgdSeparatesLinearlySeparableData) {
  Rng rng(88);
  LinearModel::Options options;
  options.loss = LossKind::kHinge;
  options.l2_reg = 1e-4;
  options.initial_dim = 2;
  LinearModel model(options);
  auto opt = MakeOptimizer(
      OptimizerOptions{.kind = OptimizerKind::kAdam, .learning_rate = 0.05});
  // True separator: x0 - x1 > 0.
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::pair<std::vector<std::pair<uint32_t, double>>, double>>
        rows;
    for (int r = 0; r < 8; ++r) {
      const double x0 = rng.NextGaussian();
      const double x1 = rng.NextGaussian();
      rows.push_back({{{0, x0}, {1, x1}}, x0 - x1 > 0 ? 1.0 : -1.0});
    }
    FeatureData batch = MakeBatch(std::move(rows), 2);
    ASSERT_TRUE(model.Update(batch, opt.get()).ok());
  }
  int errors = 0;
  for (int r = 0; r < 500; ++r) {
    const double x0 = rng.NextGaussian();
    const double x1 = rng.NextGaussian();
    const double truth = x0 - x1 > 0 ? 1.0 : -1.0;
    SparseVector x = SparseVector::FromUnsorted(2, {{0, x0}, {1, x1}});
    if (model.PredictLabel(x) != truth) ++errors;
  }
  EXPECT_LT(errors, 25);  // < 5% error on separable data
}

TEST(LinearModelTest, DimMismatchFailsPrecondition) {
  LinearModel model(RegressionOptions(2));
  FeatureData batch = MakeBatch({{{{5, 1.0}}, 1.0}}, 6);
  std::vector<GradEntry> grad;
  double bias_grad = 0.0;
  Status status = GradientOf(model, batch, &grad, &bias_grad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(LinearModelTest, GradMergePhaseTimesMultiShardGradientsOnly) {
  // 200 rows are one shard, with nothing to merge; 1,000 rows are 3 shards
  // (256 rows each at least), merged once.
  obs::Histogram* merges = obs::MetricsRegistry::Global().GetHistogram(
      "model.grad_merge_seconds");
  LinearModel model(RegressionOptions(64));
  for (const auto& [rows, expected_merges] :
       {std::pair<size_t, uint64_t>{200, 0}, {1000, 1}}) {
    const FeatureData batch = testing::RandomSparseChunk(64, rows, 4, 5);
    const uint64_t before = merges->TotalCount();
    std::vector<GradEntry> grad;
    double bias_grad = 0.0;
    ASSERT_TRUE(GradientOf(model, batch, &grad, &bias_grad).ok());
    EXPECT_EQ(merges->TotalCount() - before, expected_merges)
        << rows << " rows";
  }
}

TEST(LinearModelTest, ToStringMentionsLossAndDim) {
  LinearModel model(RegressionOptions(4, 0.1));
  const std::string s = model.ToString();
  EXPECT_NE(s.find("squared"), std::string::npos);
  EXPECT_NE(s.find("dim=4"), std::string::npos);
}

}  // namespace
}  // namespace cdpipe

// End-to-end coverage of the logistic-regression path: the third loss kind
// the platform supports (the paper leverages Spark MLlib's
// LogisticRegression class).

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/ml/linear_model.h"
#include "src/ml/loss.h"
#include "src/ml/trainer.h"
#include "tests/spec/gradient_spec.h"

namespace cdpipe {
namespace {

FeatureData MakeSeparableData(Rng* rng, size_t n) {
  // True separator: 1.5 x0 - x1 + 0.5 > 0; labels in {-1, +1}.
  FeatureData out;
  out.dim = 2;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng->NextGaussian();
    const double x1 = rng->NextGaussian();
    out.features.push_back(SparseVector::FromUnsorted(2, {{0, x0}, {1, x1}}));
    out.labels.push_back(1.5 * x0 - x1 + 0.5 > 0 ? 1.0 : -1.0);
  }
  return out;
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  Rng rng(13);
  FeatureData train = MakeSeparableData(&rng, 800);
  FeatureData test = MakeSeparableData(&rng, 400);

  LinearModel model(LinearModel::Options{.loss = LossKind::kLogistic,
                                         .l2_reg = 1e-4,
                                         .initial_dim = 2});
  auto optimizer = MakeOptimizer(OptimizerOptions{
      .kind = OptimizerKind::kAdam, .learning_rate = 0.05});
  BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 60,
                                             .batch_size = 64,
                                             .tolerance = 1e-5});
  auto stats = trainer.Train({&train}, &model, optimizer.get(), &rng);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  int errors = 0;
  for (size_t r = 0; r < test.num_rows(); ++r) {
    if (model.PredictLabel(test.features[r]) != test.labels[r]) ++errors;
  }
  EXPECT_LT(errors, 20);  // < 5%
}

TEST(LogisticRegressionTest, MarginMapsToCalibratedProbability) {
  Rng rng(14);
  FeatureData train = MakeSeparableData(&rng, 800);
  LinearModel model(LinearModel::Options{.loss = LossKind::kLogistic,
                                         .l2_reg = 1e-3,
                                         .initial_dim = 2});
  auto optimizer = MakeOptimizer(OptimizerOptions{
      .kind = OptimizerKind::kAdam, .learning_rate = 0.05});
  BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 60,
                                             .batch_size = 64});
  ASSERT_TRUE(trainer.Train({&train}, &model, optimizer.get(), &rng).ok());

  // Points deep on the positive side get probability ~1; deep negative ~0;
  // Sigmoid(margin) is the posterior.
  const double p_positive =
      Sigmoid(model.Predict(SparseVector::FromUnsorted(2, {{0, 3.0}, {1, -3.0}})));
  const double p_negative =
      Sigmoid(model.Predict(SparseVector::FromUnsorted(2, {{0, -3.0}, {1, 3.0}})));
  EXPECT_GT(p_positive, 0.9);
  EXPECT_LT(p_negative, 0.1);
}

TEST(LogisticRegressionTest, LogisticLossDecreasesDuringTraining) {
  Rng rng(15);
  FeatureData train = MakeSeparableData(&rng, 500);
  LinearModel model(LinearModel::Options{.loss = LossKind::kLogistic,
                                         .initial_dim = 2});
  const double loss_before = *spec::MeanLoss(model, train);
  EXPECT_NEAR(loss_before, std::log(2.0), 1e-9);  // untrained: log 2

  auto optimizer = MakeOptimizer(OptimizerOptions{
      .kind = OptimizerKind::kAdam, .learning_rate = 0.05});
  BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 30,
                                             .batch_size = 64});
  ASSERT_TRUE(trainer.Train({&train}, &model, optimizer.get(), &rng).ok());
  const double loss_after = *spec::MeanLoss(model, train);
  EXPECT_LT(loss_after, loss_before / 2.0);
}

}  // namespace
}  // namespace cdpipe

#include "src/ml/trainer.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/spec/gradient_spec.h"

namespace cdpipe {
namespace {

// y = 3 x0 - 1 x1 + 0.5, noise-free.
FeatureData MakeLinearData(Rng* rng, size_t n) {
  FeatureData out;
  out.dim = 2;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng->NextGaussian();
    const double x1 = rng->NextGaussian();
    out.features.push_back(
        SparseVector::FromUnsorted(2, {{0, x0}, {1, x1}}));
    out.labels.push_back(3 * x0 - x1 + 0.5);
  }
  return out;
}

TEST(BatchTrainerTest, FitsLinearRegression) {
  Rng rng(5);
  FeatureData data = MakeLinearData(&rng, 500);
  LinearModel model(LinearModel::Options{.loss = LossKind::kSquared,
                                         .l2_reg = 0.0,
                                         .fit_bias = true,
                                         .initial_dim = 2});
  auto opt = MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                            .learning_rate = 0.05});
  BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 200,
                                             .batch_size = 50,
                                             .tolerance = 1e-6});
  auto stats = trainer.Train({&data}, &model, opt.get(), &rng);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NEAR(model.weights()[0], 3.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -1.0, 0.05);
  EXPECT_NEAR(model.bias(), 0.5, 0.05);
  EXPECT_LT(*spec::MeanLoss(model, data), 0.01);
  EXPECT_GT(stats->sgd_iterations, 0);
  EXPECT_GT(stats->examples_visited, 0);
}

TEST(BatchTrainerTest, FullBatchModeUsesOneIterationPerEpoch) {
  Rng rng(6);
  FeatureData data = MakeLinearData(&rng, 100);
  LinearModel model(LinearModel::Options{.loss = LossKind::kSquared,
                                         .initial_dim = 2});
  auto opt = MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kSgd,
                                            .learning_rate = 0.1});
  BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 7,
                                             .batch_size = 0,  // full batch
                                             .tolerance = 0.0});
  auto stats = trainer.Train({&data}, &model, opt.get(), &rng);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epochs_run, 7);
  EXPECT_EQ(stats->sgd_iterations, 7);
  EXPECT_EQ(stats->examples_visited, 700);
}

TEST(BatchTrainerTest, ConvergenceStopsEarly) {
  Rng rng(7);
  FeatureData data = MakeLinearData(&rng, 200);
  LinearModel model(LinearModel::Options{.loss = LossKind::kSquared,
                                         .initial_dim = 2});
  auto opt = MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                            .learning_rate = 0.1});
  BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 10000,
                                             .batch_size = 0,
                                             .tolerance = 1e-5});
  auto stats = trainer.Train({&data}, &model, opt.get(), &rng);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->converged);
  EXPECT_LT(stats->epochs_run, 10000);
}

TEST(BatchTrainerTest, TrainsAcrossMultipleChunksWithMixedDims) {
  Rng rng(8);
  FeatureData chunk1 = MakeLinearData(&rng, 50);
  FeatureData chunk2 = MakeLinearData(&rng, 50);
  chunk2.dim = 3;  // widen nominal dim; indices unchanged
  for (auto& f : chunk2.features) {
    f = std::move(SparseVector::FromSorted(
                      3, std::vector<uint32_t>(f.indices()),
                      std::vector<double>(f.values())))
            .ValueOrDie();
  }
  LinearModel model(LinearModel::Options{.loss = LossKind::kSquared});
  auto opt = MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                            .learning_rate = 0.05});
  BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 100,
                                             .batch_size = 32});
  auto stats = trainer.Train({&chunk1, &chunk2}, &model, opt.get(), &rng);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(model.dim(), 3u);
  EXPECT_NEAR(model.weights()[0], 3.0, 0.15);
}

TEST(BatchTrainerTest, EmptyInputReturnsZeroStats) {
  Rng rng(9);
  LinearModel model(LinearModel::Options{});
  auto opt = MakeOptimizer(OptimizerOptions{});
  BatchTrainer trainer(BatchTrainer::Options{});
  auto stats = trainer.Train({}, &model, opt.get(), &rng);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epochs_run, 0);
  EXPECT_EQ(stats->sgd_iterations, 0);
}

TEST(BatchTrainerTest, NullChunkRejected) {
  Rng rng(10);
  LinearModel model(LinearModel::Options{});
  auto opt = MakeOptimizer(OptimizerOptions{});
  BatchTrainer trainer(BatchTrainer::Options{});
  EXPECT_FALSE(trainer.Train({nullptr}, &model, opt.get(), &rng).ok());
}

TEST(BatchTrainerTest, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    Rng data_rng(11);
    FeatureData data = MakeLinearData(&data_rng, 100);
    LinearModel model(LinearModel::Options{.loss = LossKind::kSquared,
                                           .initial_dim = 2});
    auto opt = MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                              .learning_rate = 0.05});
    BatchTrainer trainer(BatchTrainer::Options{.max_epochs = 5,
                                               .batch_size = 10,
                                               .tolerance = 0.0});
    Rng rng(seed);
    EXPECT_TRUE(trainer.Train({&data}, &model, opt.get(), &rng).ok());
    return model.weights()[0];
  };
  EXPECT_DOUBLE_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace cdpipe

// Equivalence suite for the training path.  BatchTrainer runs must
// produce *bit-identical* weights and bias whether the gradient shards run
// serially or on an engine, the view path must match a per-step merged copy
// through the online path's FeatureData update, and the kernel must equal
// the row-at-a-time reference gradient (tests/spec/gradient_spec.h).  The
// shard count depends only on the row count and shard partials merge in
// fixed shard order, so any divergence is a bug, not roundoff.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/engine/execution_engine.h"
#include "src/ml/batch_view.h"
#include "src/ml/trainer.h"
#include "src/sampling/sampler.h"
#include "tests/spec/gradient_spec.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace {

using ::cdpipe::testing::RandomSparseChunk;

struct TrainedParams {
  std::vector<double> weights;
  double bias = 0.0;
};

TrainedParams TrainOnce(const std::vector<const FeatureData*>& parts,
                        LossKind loss, size_t batch_size,
                        ExecutionEngine* engine) {
  LinearModel model(LinearModel::Options{.loss = loss, .l2_reg = 1e-3});
  auto optimizer = MakeOptimizer(
      OptimizerOptions{.kind = OptimizerKind::kAdam, .learning_rate = 0.02});
  BatchTrainer trainer(BatchTrainer::Options{
      .max_epochs = 4, .batch_size = batch_size, .tolerance = 0.0});
  Rng rng(7);
  auto stats = trainer.Train(parts, &model, optimizer.get(), &rng, engine);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  TrainedParams params;
  params.weights = model.weights().values();
  params.bias = model.bias();
  return params;
}

void ExpectBitIdentical(const TrainedParams& a, const TrainedParams& b) {
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_EQ(a.weights[i], b.weights[i]) << "weight " << i << " diverged";
  }
  EXPECT_EQ(a.bias, b.bias);
}

class TrainPathEquivalenceTest
    : public ::testing::TestWithParam<LossKind> {};

TEST_P(TrainPathEquivalenceTest, ShardedViewMatchesSerialViewOnMixedDims) {
  // Mixed nominal dims (a grown one-hot dictionary), empty rows, and
  // mini-batches of 600 rows so the gradient kernel actually shards.
  FeatureData a = RandomSparseChunk(40, 300, 5, 1, /*empty_every=*/7);
  FeatureData b = RandomSparseChunk(64, 300, 5, 2);
  FeatureData c = RandomSparseChunk(64, 57, 5, 3, /*empty_every=*/3);
  std::vector<const FeatureData*> parts = {&a, &b, &c};

  ExecutionEngine engine(4);
  for (size_t batch_size : {size_t{100}, size_t{600}}) {
    SCOPED_TRACE(batch_size);
    ExpectBitIdentical(TrainOnce(parts, GetParam(), batch_size, nullptr),
                       TrainOnce(parts, GetParam(), batch_size, &engine));
  }
}

INSTANTIATE_TEST_SUITE_P(Losses, TrainPathEquivalenceTest,
                         ::testing::Values(LossKind::kSquared,
                                           LossKind::kHinge));

// Proactive-style equivalence: per-iteration SGD over sampler-drawn chunk
// subsets, merged copy path vs zero-copy view path, uniform and window
// samplers.
class SamplerDrivenEquivalenceTest
    : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(SamplerDrivenEquivalenceTest, IterationsMatchMergedCopyPath) {
  std::vector<FeatureData> chunks;
  std::vector<ChunkId> ids;
  for (uint64_t c = 0; c < 12; ++c) {
    // Dims grow over time like a real one-hot dictionary.
    chunks.push_back(RandomSparseChunk(32 + 4 * static_cast<uint32_t>(c), 80,
                                       4, 100 + c, /*empty_every=*/11));
    ids.push_back(static_cast<ChunkId>(c));
  }
  std::unique_ptr<Sampler> sampler =
      GetParam() == SamplerKind::kWindow
          ? std::unique_ptr<Sampler>(std::make_unique<WindowSampler>(6))
          : std::unique_ptr<Sampler>(std::make_unique<UniformSampler>());

  LinearModel copy_model(LinearModel::Options{.loss = LossKind::kHinge});
  LinearModel view_model(LinearModel::Options{.loss = LossKind::kHinge});
  auto copy_opt = MakeOptimizer(OptimizerOptions{});
  auto view_opt = MakeOptimizer(OptimizerOptions{});
  ExecutionEngine engine(3);

  Rng copy_rng(5);
  Rng view_rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    const std::vector<ChunkId> copy_ids = sampler->Sample(ids, 5, &copy_rng);
    const std::vector<ChunkId> view_ids = sampler->Sample(ids, 5, &view_rng);
    ASSERT_EQ(copy_ids, view_ids);
    std::vector<const FeatureData*> parts;
    for (ChunkId id : copy_ids) parts.push_back(&chunks[id]);

    // Copy path: merge into one FeatureData, serial update.
    FeatureData merged = testing::MergeFeatureData(parts);
    copy_model.EnsureDim(merged.dim);
    ASSERT_TRUE(copy_model.Update(merged, copy_opt.get()).ok());

    // View path: zero-copy, sharded across the engine.
    uint32_t dim = 0;
    auto rows = BatchView::CollectRows(parts, &dim);
    ASSERT_TRUE(rows.ok());
    const BatchView batch(dim, *rows);
    view_model.EnsureDim(dim);
    ASSERT_TRUE(view_model.Update(batch, view_opt.get(), &engine).ok());

    ASSERT_EQ(copy_model.dim(), view_model.dim());
    for (uint32_t i = 0; i < copy_model.dim(); ++i) {
      ASSERT_EQ(copy_model.weights()[i], view_model.weights()[i])
          << "iteration " << iter << " weight " << i;
    }
    ASSERT_EQ(copy_model.bias(), view_model.bias()) << "iteration " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Samplers, SamplerDrivenEquivalenceTest,
                         ::testing::Values(SamplerKind::kUniform,
                                           SamplerKind::kWindow));

TEST(ShardedGradientTest, MatchesSerialGradientBitwise) {
  // Direct kernel check at a row count that produces several shards.
  FeatureData chunk = RandomSparseChunk(128, 2000, 8, 9, /*empty_every=*/13);
  std::vector<const FeatureData*> parts = {&chunk};
  uint32_t dim = 0;
  auto rows = BatchView::CollectRows(parts, &dim);
  ASSERT_TRUE(rows.ok());
  const BatchView batch(dim, *rows);

  LinearModel model(LinearModel::Options{.loss = LossKind::kSquared,
                                         .l2_reg = 0.01,
                                         .initial_dim = 128});
  ExecutionEngine engine(4);
  std::vector<GradEntry> serial_grad, sharded_grad;
  double serial_bias = 0.0, sharded_bias = 0.0;
  ASSERT_TRUE(
      model.ComputeGradient(batch, &serial_grad, &serial_bias, nullptr).ok());
  ASSERT_TRUE(
      model.ComputeGradient(batch, &sharded_grad, &sharded_bias, &engine).ok());

  ASSERT_EQ(serial_grad.size(), sharded_grad.size());
  for (size_t i = 0; i < serial_grad.size(); ++i) {
    EXPECT_EQ(serial_grad[i].index, sharded_grad[i].index);
    EXPECT_EQ(serial_grad[i].value, sharded_grad[i].value);
  }
  EXPECT_EQ(serial_bias, sharded_bias);
}

TEST(ShardedGradientTest, ViewGradientMatchesFeatureDataGradient) {
  // The kernel over a view of the chunk equals the row-at-a-time reference
  // over the chunk's FeatureData rows.
  FeatureData chunk = RandomSparseChunk(64, 120, 6, 11);
  std::vector<const FeatureData*> parts = {&chunk};
  uint32_t dim = 0;
  auto rows = BatchView::CollectRows(parts, &dim);
  ASSERT_TRUE(rows.ok());

  LinearModel model(
      LinearModel::Options{.loss = LossKind::kHinge, .initial_dim = 64});
  const spec::Gradient reference = spec::ReferenceGradient(model, parts);
  std::vector<GradEntry> view_grad;
  double view_bias = 0.0;
  ASSERT_TRUE(model
                  .ComputeGradient(BatchView(dim, *rows), &view_grad,
                                   &view_bias, nullptr)
                  .ok());
  ASSERT_EQ(reference.entries.size(), view_grad.size());
  for (size_t i = 0; i < reference.entries.size(); ++i) {
    EXPECT_EQ(reference.entries[i].index, view_grad[i].index);
    EXPECT_EQ(reference.entries[i].value, view_grad[i].value);
  }
  EXPECT_EQ(reference.bias, view_bias);
}

}  // namespace
}  // namespace cdpipe

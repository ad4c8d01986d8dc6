#include "src/core/proactive_trainer.h"

#include <string>

#include <gtest/gtest.h>

#include "src/core/report.h"
#include "src/data/url_stream.h"
#include "src/obs/metrics.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace {

TEST(MergeFeatureDataTest, ConcatenatesRows) {
  FeatureData a;
  a.dim = 3;
  a.features.push_back(SparseVector::FromUnsorted(3, {{0, 1.0}}));
  a.labels.push_back(1.0);
  FeatureData b;
  b.dim = 3;
  b.features.push_back(SparseVector::FromUnsorted(3, {{2, 2.0}}));
  b.features.push_back(SparseVector::FromUnsorted(3, {{1, 3.0}}));
  b.labels = {-1.0, 1.0};

  FeatureData merged = testing::MergeFeatureData({&a, &b});
  EXPECT_EQ(merged.num_rows(), 3u);
  EXPECT_EQ(merged.dim, 3u);
  EXPECT_TRUE(merged.Validate().ok());
  EXPECT_DOUBLE_EQ(merged.labels[1], -1.0);
}

TEST(MergeFeatureDataTest, WidensMixedDims) {
  FeatureData narrow;
  narrow.dim = 2;
  narrow.features.push_back(SparseVector::FromUnsorted(2, {{1, 5.0}}));
  narrow.labels.push_back(1.0);
  FeatureData wide;
  wide.dim = 6;
  wide.features.push_back(SparseVector::FromUnsorted(6, {{5, 1.0}}));
  wide.labels.push_back(-1.0);

  FeatureData merged = testing::MergeFeatureData({&narrow, &wide});
  EXPECT_EQ(merged.dim, 6u);
  EXPECT_TRUE(merged.Validate().ok());
  EXPECT_DOUBLE_EQ(merged.features[0].Get(1), 5.0);
}

TEST(MergeFeatureDataTest, EmptyInput) {
  FeatureData merged = testing::MergeFeatureData({});
  EXPECT_EQ(merged.num_rows(), 0u);
  EXPECT_EQ(merged.dim, 0u);
}

class ProactiveTrainerTest : public ::testing::Test {
 protected:
  ProactiveTrainerTest()
      : engine_(1) {
    UrlPipelineConfig config;
    config.raw_dim = 1000;
    config.hash_bits = 6;
    manager_ = std::make_unique<PipelineManager>(
        MakeUrlPipeline(config),
        std::make_unique<LinearModel>(MakeUrlModelOptions(config)),
        MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                       .learning_rate = 0.05}),
        &cost_);
  }

  RawChunk MakeChunk(ChunkId id) {
    RawChunk chunk;
    chunk.id = id;
    chunk.records = {"+1 3:1.0 5:1.0", "-1 7:2.0"};
    return chunk;
  }

  FeatureChunk Materialize(const RawChunk& chunk) {
    return std::move(manager_->Rematerialize(chunk)).ValueOrDie();
  }

  /// The trainer's counts live in the global registry: read them as the
  /// delta since the fixture was built, the way a deployment report does.
  DeploymentReport MetricsSinceStart() const {
    DeploymentReport view;
    view.metrics = obs::MetricsSnapshot::Delta(
        before_, obs::MetricsRegistry::Global().Snapshot());
    return view;
  }
  int64_t CounterSinceStart(const std::string& name) const {
    return MetricsSinceStart().metrics.CounterValueOr(name, 0);
  }

  const obs::MetricsSnapshot before_ =
      obs::MetricsRegistry::Global().Snapshot();
  CostModel cost_;
  ExecutionEngine engine_;
  std::unique_ptr<PipelineManager> manager_;
};

TEST_F(ProactiveTrainerTest, IterationOverMaterializedSample) {
  ProactiveTrainer trainer(manager_.get(), &engine_, RetryPolicy());
  RawChunk raw = MakeChunk(0);
  FeatureChunk features = Materialize(raw);
  DataManager::SampleSet sample;
  sample.materialized = {&features};

  ASSERT_TRUE(trainer.RunIteration(sample).ok());
  EXPECT_EQ(MetricsSinceStart().proactive_iterations(), 1);
  EXPECT_EQ(CounterSinceStart("proactive.rows_trained"), 2);
  EXPECT_EQ(CounterSinceStart("training.chunks_rematerialized"), 0);
  EXPECT_EQ(manager_->optimizer().step_count(), 1);
  EXPECT_GT(trainer.last_duration_seconds(), 0.0);
}

TEST_F(ProactiveTrainerTest, IterationRematerializesEvictedChunks) {
  ProactiveTrainer trainer(manager_.get(), &engine_, RetryPolicy());
  RawChunk raw0 = MakeChunk(0);
  RawChunk raw1 = MakeChunk(1);
  FeatureChunk features = Materialize(raw0);
  DataManager::SampleSet sample;
  sample.materialized = {&features};
  sample.to_rematerialize = {&raw1};

  ASSERT_TRUE(trainer.RunIteration(sample).ok());
  EXPECT_EQ(CounterSinceStart("training.chunks_rematerialized"), 1);
  EXPECT_EQ(CounterSinceStart("proactive.rows_trained"), 4);
  EXPECT_GT(cost_.WorkIn(CostPhase::kMaterialization), 0);
  EXPECT_GT(cost_.WorkIn(CostPhase::kProactiveTraining), 0);
}

TEST_F(ProactiveTrainerTest, EachIterationIsOneSgdStep) {
  // Iterations of proactive training are conditionally independent: each
  // one is exactly one optimizer step regardless of spacing (§3.3).
  ProactiveTrainer trainer(manager_.get(), &engine_, RetryPolicy());
  RawChunk raw = MakeChunk(0);
  FeatureChunk features = Materialize(raw);
  DataManager::SampleSet sample;
  sample.materialized = {&features};
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(trainer.RunIteration(sample).ok());
    EXPECT_EQ(manager_->optimizer().step_count(), i);
  }
  EXPECT_EQ(MetricsSinceStart().proactive_iterations(), 5);
  EXPECT_GT(MetricsSinceStart().average_proactive_seconds(), 0.0);
}

TEST_F(ProactiveTrainerTest, EmptySampleIsNoOp) {
  ProactiveTrainer trainer(manager_.get(), &engine_, RetryPolicy());
  DataManager::SampleSet sample;
  ASSERT_TRUE(trainer.RunIteration(sample).ok());
  EXPECT_EQ(MetricsSinceStart().proactive_iterations(), 1);
  EXPECT_EQ(manager_->optimizer().step_count(), 0);
}

TEST_F(ProactiveTrainerTest, ParallelRematerializationMatchesSerial) {
  ExecutionEngine parallel_engine(4);
  ProactiveTrainer serial(manager_.get(), &engine_, RetryPolicy());
  RawChunk raw0 = MakeChunk(0);
  RawChunk raw1 = MakeChunk(1);
  RawChunk raw2 = MakeChunk(2);
  DataManager::SampleSet sample;
  sample.to_rematerialize = {&raw0, &raw1, &raw2};
  ASSERT_TRUE(serial.RunIteration(sample).ok());
  const double weights_after_serial = manager_->model().weights().L2Norm();

  ProactiveTrainer parallel(manager_.get(), &parallel_engine,
                            RetryPolicy());
  ASSERT_TRUE(parallel.RunIteration(sample).ok());
  // Both ran one iteration over the same merged batch; weights moved again
  // but the mechanism is identical.
  EXPECT_EQ(manager_->optimizer().step_count(), 2);
  EXPECT_NE(weights_after_serial, 0.0);
}

}  // namespace
}  // namespace cdpipe

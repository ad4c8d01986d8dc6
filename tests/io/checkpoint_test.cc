// Checkpoint round-trip: a deployment restored from a checkpoint must
// behave bit-identically to the one that wrote it — same predictions, same
// transformed features, same next optimizer step.

#include "src/io/checkpoint.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/io/serialization.h"
#include "src/ml/prequential.h"
#include "src/pipeline/one_hot_encoder.h"
#include "src/serving/snapshot_publisher.h"
#include "tests/testing/feature_data_test_util.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 2000;
  config.hash_bits = 8;
  return config;
}

std::unique_ptr<PipelineManager> MakeManager(CostModel* cost,
                                             OptimizerKind kind) {
  const UrlPipelineConfig config = PipeConfig();
  return std::make_unique<PipelineManager>(
      MakeUrlPipeline(config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(config)),
      MakeOptimizer(OptimizerOptions{.kind = kind, .learning_rate = 0.05}),
      cost);
}

RawChunk MakeChunk(ChunkId id, uint64_t seed) {
  UrlStreamGenerator::Config config;
  config.feature_dim = 2000;
  config.initial_active_features = 150;
  config.nnz_per_record = 8;
  config.records_per_chunk = 30;
  config.seed = seed;
  UrlStreamGenerator generator(config);
  RawChunk chunk = generator.NextChunk();
  chunk.id = id;
  return chunk;
}

class CheckpointRoundTripTest
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(CheckpointRoundTripTest, RestoredManagerContinuesIdentically) {
  CostModel cost_a;
  auto original = MakeManager(&cost_a, GetParam());

  // Accumulate nontrivial state: statistics + several optimizer steps.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        original->OnlineStep(MakeChunk(i, 10 + i), nullptr).ok());
  }

  std::ostringstream buffer;
  ASSERT_TRUE(SaveCheckpoint(*original, &buffer).ok());

  CostModel cost_b;
  auto restored = MakeManager(&cost_b, GetParam());
  std::istringstream input(buffer.str());
  Status load = LoadCheckpoint(&input, restored.get());
  ASSERT_TRUE(load.ok()) << load.ToString();

  // Same model parameters...
  EXPECT_EQ(restored->model().weights().values(),
            original->model().weights().values());
  EXPECT_EQ(restored->model().bias(), original->model().bias());
  EXPECT_EQ(restored->optimizer().step_count(),
            original->optimizer().step_count());

  // ...same transformed features (pipeline statistics restored)...
  RawChunk probe = MakeChunk(100, 99);
  auto features_a = original->Rematerialize(probe);
  auto features_b = restored->Rematerialize(probe);
  ASSERT_TRUE(features_a.ok());
  ASSERT_TRUE(features_b.ok());
  ASSERT_EQ(features_a->num_rows(), features_b->num_rows());
  for (size_t r = 0; r < features_a->num_rows(); ++r) {
    EXPECT_TRUE(features_a->data.features[r] == features_b->data.features[r]);
  }

  // ...and the *next* training step produces identical weights (optimizer
  // adaptation state restored bit-exactly).
  RawChunk next = MakeChunk(101, 123);
  ASSERT_TRUE(original->OnlineStep(next, nullptr).ok());
  ASSERT_TRUE(restored->OnlineStep(next, nullptr).ok());
  EXPECT_EQ(restored->model().weights().values(),
            original->model().weights().values());
  EXPECT_EQ(restored->model().bias(), original->model().bias());
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, CheckpointRoundTripTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kMomentum,
                                           OptimizerKind::kAdam,
                                           OptimizerKind::kRmsprop,
                                           OptimizerKind::kAdadelta));

TEST(CheckpointTest, OptimizerKindMismatchRejected) {
  CostModel cost_a;
  auto original = MakeManager(&cost_a, OptimizerKind::kAdam);
  std::ostringstream buffer;
  ASSERT_TRUE(SaveCheckpoint(*original, &buffer).ok());

  CostModel cost_b;
  auto restored = MakeManager(&cost_b, OptimizerKind::kRmsprop);
  std::istringstream input(buffer.str());
  Status load = LoadCheckpoint(&input, restored.get());
  ASSERT_FALSE(load.ok());
  EXPECT_NE(load.message().find("optimizer"), std::string::npos);
}

TEST(CheckpointTest, GarbageInputRejected) {
  CostModel cost;
  auto manager = MakeManager(&cost, OptimizerKind::kAdam);
  std::istringstream garbage("not a checkpoint at all");
  EXPECT_FALSE(LoadCheckpoint(&garbage, manager.get()).ok());
}

TEST(CheckpointTest, FileRoundTrip) {
  const std::string path = "/tmp/cdpipe_checkpoint_test.ckpt";
  CostModel cost_a;
  auto original = MakeManager(&cost_a, OptimizerKind::kAdam);
  ASSERT_TRUE(original->OnlineStep(MakeChunk(0, 1), nullptr).ok());
  ASSERT_TRUE(SaveCheckpointToFile(*original, path).ok());

  CostModel cost_b;
  auto restored = MakeManager(&cost_b, OptimizerKind::kAdam);
  Status load = LoadCheckpointFromFile(path, restored.get());
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_EQ(restored->model().weights().values(),
            original->model().weights().values());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  CostModel cost;
  auto manager = MakeManager(&cost, OptimizerKind::kAdam);
  EXPECT_FALSE(
      LoadCheckpointFromFile("/nonexistent/nope.ckpt", manager.get()).ok());
}

TEST(CheckpointTest, TaxiPipelineRoundTrip) {
  // Exercises the table-mode scaler (per-column moments + counts) through
  // the checkpoint path.
  CostModel cost_a;
  auto original = std::make_unique<PipelineManager>(
      MakeTaxiPipeline(),
      std::make_unique<LinearModel>(MakeTaxiModelOptions()),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kRmsprop,
                                     .learning_rate = 0.01}),
      &cost_a);
  TaxiStreamGenerator::Config config;
  config.records_per_chunk = 30;
  config.seed = 9;
  TaxiStreamGenerator generator(config);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        original->OnlineStep(generator.NextChunk(), nullptr).ok());
  }

  std::ostringstream buffer;
  ASSERT_TRUE(SaveCheckpoint(*original, &buffer).ok());

  CostModel cost_b;
  auto restored = std::make_unique<PipelineManager>(
      MakeTaxiPipeline(),
      std::make_unique<LinearModel>(MakeTaxiModelOptions()),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kRmsprop,
                                     .learning_rate = 0.01}),
      &cost_b);
  std::istringstream input(buffer.str());
  Status load = LoadCheckpoint(&input, restored.get());
  ASSERT_TRUE(load.ok()) << load.ToString();

  RawChunk probe = generator.NextChunk();
  auto features_a = original->Rematerialize(probe);
  auto features_b = restored->Rematerialize(probe);
  ASSERT_TRUE(features_a.ok());
  ASSERT_TRUE(features_b.ok());
  ASSERT_EQ(features_a->num_rows(), features_b->num_rows());
  for (size_t r = 0; r < features_a->num_rows(); ++r) {
    EXPECT_TRUE(features_a->data.features[r] == features_b->data.features[r]);
  }
  EXPECT_EQ(restored->model().bias(), original->model().bias());
}

TEST(CheckpointTest, SecondRestoreServesItsOwnStatistics) {
  // Two restores with no update between them: each must publish its own
  // statistics.  Every restored pipeline once reported the same state
  // version, so the publisher took the second restore for a model-only
  // refresh and kept serving the first restore's statistics.
  CostModel cost;
  auto manager = MakeManager(&cost, OptimizerKind::kAdam);
  serving::SnapshotPublisher publisher;
  manager->AttachPublisher(&publisher);

  std::ostringstream after_one;
  std::ostringstream after_twenty;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(manager->OnlineStep(MakeChunk(i, 10 + i), nullptr).ok());
    if (i == 0) {
      ASSERT_TRUE(SaveCheckpoint(*manager, &after_one).ok());
    }
  }
  ASSERT_TRUE(SaveCheckpoint(*manager, &after_twenty).ok());

  std::istringstream first(after_one.str());
  ASSERT_TRUE(LoadCheckpoint(&first, manager.get()).ok());
  std::istringstream second(after_twenty.str());
  ASSERT_TRUE(LoadCheckpoint(&second, manager.get()).ok());

  const RawChunk probe = MakeChunk(100, 99);
  const std::shared_ptr<const serving::ModelSnapshot> served =
      publisher.Acquire();
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->pipeline_version, manager->pipeline().state_version());
  const FeatureData live = manager->pipeline().Transform(probe).ValueOrDie();
  EXPECT_EQ(
      testing::HexFloatText(served->pipeline->Transform(probe).ValueOrDie()),
      testing::HexFloatText(live));
}

TEST(OneHotCheckpointTest, DictionaryRoundTrip) {
  OneHotEncoder::Options options;
  options.numeric_columns = {};
  options.categorical_columns = {{"color", 8}};
  options.label_column = "label";
  OneHotEncoder encoder(options);

  auto schema = std::move(Schema::Make({Field{"color", ValueType::kString},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  const std::vector<std::string> records = {"red,1", "green,1", "blue,1"};
  ASSERT_TRUE(
      testing::KernelHarness::Csv(schema, &encoder).Update(records).ok());

  std::ostringstream os;
  Serializer out(&os);
  ASSERT_TRUE(encoder.SaveState(&out).ok());

  OneHotEncoder restored(options);
  std::istringstream is(os.str());
  Deserializer in(&is);
  ASSERT_TRUE(restored.LoadState(&in).ok());
  EXPECT_EQ(restored.CardinalityOf(0), 3u);

  auto a = testing::KernelHarness::Csv(schema, &encoder).Transform(records);
  auto b = testing::KernelHarness::Csv(schema, &restored).Transform(records);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(a->features[r] == b->features[r]);
  }
}

}  // namespace
}  // namespace cdpipe

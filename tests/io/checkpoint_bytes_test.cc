// Pins the checkpoint bytes of the two paper deployments: the length and
// Fnv1a64 hash of SaveCheckpoint's output after a bootstrap (statistics folded
// in, one BatchTrainer pass) plus 20 online stream chunks at seed 42, with
// the bench scenarios' pipeline, stream and optimizer settings.  The
// scenario fingerprints compare two runs of one build; these compare every
// build against one reference, so a change to statistics bits, to the
// serialized key order or to the format fails here.  The expected values
// were generated with the unordered_map statistics tables that preceded
// FlatKeyMap.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/core/pipeline_manager.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"
#include "src/ml/trainer.h"

namespace cdpipe {
namespace {

constexpr uint64_t kSeed = 42;
constexpr size_t kStreamChunks = 20;

/// Folds `bootstrap` into the statistics, trains one BatchTrainer pass on
/// it (Deployment::InitialTrain's protocol), runs `stream` online, and
/// returns the checkpoint bytes.
std::string CheckpointAfter(PipelineManager* manager,
                            const std::vector<RawChunk>& bootstrap,
                            const std::vector<RawChunk>& stream) {
  std::vector<FeatureChunk> transformed;
  for (const RawChunk& chunk : bootstrap) {
    transformed.push_back(manager->PreprocessChunk(chunk).ValueOrDie());
  }
  std::vector<const FeatureData*> parts;
  for (const FeatureChunk& chunk : transformed) parts.push_back(&chunk.data);
  Rng rng(kSeed);
  const BatchTrainer trainer(BatchTrainer::Options{
      .max_epochs = 40, .batch_size = 200, .tolerance = 1e-4});
  EXPECT_TRUE(trainer
                  .Train(parts, manager->mutable_model(),
                         manager->mutable_optimizer(), &rng)
                  .ok());
  for (const RawChunk& chunk : stream) {
    EXPECT_TRUE(manager->OnlineStep(chunk, nullptr).ok());
  }
  std::ostringstream bytes;
  EXPECT_TRUE(SaveCheckpoint(*manager, &bytes).ok());
  return bytes.str();
}

TEST(CheckpointBytesTest, UrlAfterBootstrapAndTwentyChunks) {
  UrlPipelineConfig pipe;
  pipe.raw_dim = 1u << 16;
  pipe.hash_bits = 12;
  pipe.l2_reg = 1e-3;
  UrlStreamGenerator::Config config;
  config.feature_dim = pipe.raw_dim;
  config.initial_active_features = 400;
  config.new_features_per_chunk = 2;
  config.perturbed_weights_per_chunk = 40;
  config.drift_step = 0.05;
  config.directional_drift_step = 0.002;
  config.nnz_per_record = 15;
  config.records_per_chunk = 100;
  config.label_noise = 0.02;
  config.margin_threshold = 1.5;
  config.missing_prob = 0.01;
  config.seed = kSeed;
  UrlStreamGenerator generator(config);
  const std::vector<RawChunk> bootstrap = generator.Generate(40);
  const std::vector<RawChunk> stream = generator.Generate(kStreamChunks);

  CostModel cost;
  PipelineManager manager(
      MakeUrlPipeline(pipe),
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.002}),
      &cost);
  const std::string bytes = CheckpointAfter(&manager, bootstrap, stream);
  EXPECT_EQ(bytes.size(), 150127u);
  EXPECT_EQ(Fnv1a64(bytes), 12357051226724771962u);
}

TEST(CheckpointBytesTest, TaxiAfterBootstrapAndTwentyChunks) {
  TaxiStreamGenerator::Config config;
  config.records_per_chunk = 60;
  config.anomaly_prob = 0.01;
  config.noise_sigma = 0.25;
  config.seed = kSeed;
  TaxiStreamGenerator generator(config);
  const std::vector<RawChunk> bootstrap = generator.Generate(48);
  const std::vector<RawChunk> stream = generator.Generate(kStreamChunks);

  CostModel cost;
  PipelineManager manager(
      MakeTaxiPipeline(),
      std::make_unique<LinearModel>(MakeTaxiModelOptions(1e-4)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kRmsprop,
                                     .learning_rate = 0.02}),
      &cost);
  const std::string bytes = CheckpointAfter(&manager, bootstrap, stream);
  EXPECT_EQ(bytes.size(), 1857u);
  EXPECT_EQ(Fnv1a64(bytes), 7534303592616646929u);
}

}  // namespace
}  // namespace cdpipe

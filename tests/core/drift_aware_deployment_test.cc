// Integration test of the drift-alleviation extension: a continuous
// deployment with a drift detector must notice an abrupt concept change and
// respond with burst proactive training, recovering faster than a plain
// continuous deployment with uniform sampling.

#include <memory>

#include <gtest/gtest.h>

#include "src/core/continuous_deployment.h"
#include "src/data/url_stream.h"

namespace cdpipe {
namespace {

UrlStreamGenerator::Config StreamConfig(uint64_t seed) {
  UrlStreamGenerator::Config config;
  config.feature_dim = 2000;
  config.initial_active_features = 200;
  config.new_features_per_chunk = 0;
  config.perturbed_weights_per_chunk = 0;
  config.nnz_per_record = 10;
  config.records_per_chunk = 40;
  config.margin_threshold = 1.5;
  config.seed = seed;
  return config;
}

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 2000;
  config.hash_bits = 8;
  return config;
}

/// First `half` chunks from one concept, second `half` from a re-seeded
/// (disjoint) concept, ids continuous after a bootstrap prefix.
std::vector<RawChunk> AbruptStream(uint64_t seed, size_t bootstrap,
                                   size_t half) {
  UrlStreamGenerator before(StreamConfig(seed));
  before.Generate(bootstrap);  // skip the bootstrap prefix
  std::vector<RawChunk> stream = before.Generate(half);
  UrlStreamGenerator after(StreamConfig(seed + 999));
  std::vector<RawChunk> tail = after.Generate(half);
  for (size_t i = 0; i < tail.size(); ++i) {
    tail[i].id = static_cast<ChunkId>(bootstrap + half + i);
    stream.push_back(std::move(tail[i]));
  }
  return stream;
}

struct RunResult {
  DeploymentReport report;
};

RunResult RunContinuous(bool with_detector, uint64_t seed) {
  constexpr size_t kBootstrap = 10;
  constexpr size_t kHalf = 40;

  UrlStreamGenerator bootstrap_generator(StreamConfig(seed));
  const std::vector<RawChunk> bootstrap =
      bootstrap_generator.Generate(kBootstrap);
  const std::vector<RawChunk> stream = AbruptStream(seed, kBootstrap, kHalf);

  Deployment::Options options;
  options.seed = 7;
  options.eval_window = 400;
  options.sampler = SamplerKind::kUniform;  // worst case under drift
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 4;
  continuous.sample_chunks = 10;
  if (with_detector) {
    PageHinkleyDetector::Options detector;
    detector.delta = 0.01;
    detector.lambda = 0.5;  // chunk-level signal: low threshold
    detector.burn_in = 5;
    continuous.drift_detector =
        std::make_unique<PageHinkleyDetector>(detector);
    continuous.drift_burst_iterations = 4;
    continuous.drift_window_chunks = 10;
  }
  UrlPipelineConfig pipe_config = PipeConfig();
  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), MakeUrlPipeline(pipe_config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.01}),
      std::make_unique<MisclassificationRate>());

  Status init = deployment.InitialTrain(
      bootstrap, BatchTrainer::Options{.max_epochs = 30, .batch_size = 100,
                                       .tolerance = 1e-4});
  EXPECT_TRUE(init.ok()) << init.ToString();
  auto report = deployment.Run(stream);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return {std::move(report).ValueOrDie()};
}

TEST(DriftAwareDeploymentTest, DetectsAbruptDrift) {
  RunResult result = RunContinuous(/*with_detector=*/true, 31);
  EXPECT_GE(result.report.drift_events(), 1);
  EXPECT_LE(result.report.drift_events(), 10);  // not a false-alarm storm
}

TEST(DriftAwareDeploymentTest, NoDetectorMeansNoEvents) {
  RunResult result = RunContinuous(/*with_detector=*/false, 31);
  EXPECT_EQ(result.report.drift_events(), 0);
}

TEST(DriftAwareDeploymentTest, BurstTrainingImprovesRecovery) {
  RunResult plain = RunContinuous(/*with_detector=*/false, 31);
  RunResult aware = RunContinuous(/*with_detector=*/true, 31);
  // The drift-aware run trains more (burst iterations)...
  EXPECT_GT(aware.report.proactive_iterations(),
            plain.report.proactive_iterations());
  // ...and its post-drift windowed error must not be worse.
  EXPECT_LE(aware.report.curve.back().windowed_error,
            plain.report.curve.back().windowed_error + 1e-9);
}

TEST(DriftAwareDeploymentTest, StationaryStreamStaysQuiet) {
  constexpr size_t kBootstrap = 10;
  UrlStreamGenerator generator(StreamConfig(77));
  const std::vector<RawChunk> bootstrap = generator.Generate(kBootstrap);
  const std::vector<RawChunk> stream = generator.Generate(60);

  Deployment::Options options;
  options.seed = 7;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 4;
  continuous.sample_chunks = 10;
  PageHinkleyDetector::Options detector;
  detector.delta = 0.01;
  detector.lambda = 0.5;
  detector.burn_in = 5;
  continuous.drift_detector = std::make_unique<PageHinkleyDetector>(detector);
  UrlPipelineConfig pipe_config = PipeConfig();
  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), MakeUrlPipeline(pipe_config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.01}),
      std::make_unique<MisclassificationRate>());
  ASSERT_TRUE(deployment
                  .InitialTrain(bootstrap, BatchTrainer::Options{
                                               .max_epochs = 30,
                                               .batch_size = 100,
                                               .tolerance = 1e-4})
                  .ok());
  auto report = deployment.Run(stream);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->drift_events(), 1)
      << "false-alarm storm on stationary data";
}

}  // namespace
}  // namespace cdpipe

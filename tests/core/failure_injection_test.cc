// Failure-injection integration tests: a production deployment stream is
// dirty — malformed records, empty chunks, all-anomaly chunks, chunks with
// only missing values.  The platform must keep running, keep its accounting
// consistent, and never let a bad chunk poison the deployed state.

#include <gtest/gtest.h>

#include "src/core/continuous_deployment.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"

namespace cdpipe {
namespace {

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 7;
  return config;
}

std::unique_ptr<ContinuousDeployment> MakeUrlDeployment() {
  Deployment::Options options;
  options.seed = 3;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 3;
  continuous.sample_chunks = 5;
  const UrlPipelineConfig config = PipeConfig();
  return std::make_unique<ContinuousDeployment>(
      std::move(options), std::move(continuous), MakeUrlPipeline(config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.01}),
      std::make_unique<MisclassificationRate>());
}

RawChunk Chunk(ChunkId id, std::vector<std::string> records) {
  RawChunk chunk;
  chunk.id = id;
  chunk.event_time_seconds = id * 60;
  chunk.records = std::move(records);
  return chunk;
}

TEST(FailureInjectionTest, MalformedRecordsAreDroppedNotFatal) {
  auto deployment = MakeUrlDeployment();
  std::vector<RawChunk> stream = {
      Chunk(0, {"+1 3:1.0", "-1 5:1.0"}),
      Chunk(1, {"complete garbage", "+1 not:even:close", ""}),
      Chunk(2, {"+1 7:1.0", "<html>surprise</html>", "-1 9:2.0"}),
      Chunk(3, {"+1 999999:1.0"}),  // out-of-range index
      Chunk(4, {"+1 3:1.0"}),
  };
  auto report = deployment->Run(stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->chunks_processed, 5);
  // Only the parseable rows were evaluated: 2 + 0 + 2 + 0 + 1.
  EXPECT_EQ(report->curve.back().observations, 5);
}

TEST(FailureInjectionTest, EmptyChunksFlowThrough) {
  auto deployment = MakeUrlDeployment();
  std::vector<RawChunk> stream = {
      Chunk(0, {"+1 3:1.0"}),
      Chunk(1, {}),  // empty chunk
      Chunk(2, {}),
      Chunk(3, {"-1 5:1.0"}),
  };
  auto report = deployment->Run(stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->chunks_processed, 4);
  EXPECT_EQ(report->curve.back().observations, 2);
}

TEST(FailureInjectionTest, AllMissingValuesChunk) {
  auto deployment = MakeUrlDeployment();
  std::vector<RawChunk> stream = {
      Chunk(0, {"+1 3:1.0", "-1 5:2.0"}),
      Chunk(1, {"+1 3:nan 5:nan 7:nan", "-1 2:nan"}),  // nothing observed
      Chunk(2, {"+1 3:1.0"}),
  };
  auto report = deployment->Run(stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->curve.back().observations, 5);
}

TEST(FailureInjectionTest, TaxiAllAnomalyChunkYieldsNoTraining) {
  Deployment::Options options;
  options.seed = 3;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 2;
  continuous.sample_chunks = 3;
  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), MakeTaxiPipeline(),
      std::make_unique<LinearModel>(MakeTaxiModelOptions()),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kRmsprop,
                                     .learning_rate = 0.01}),
      std::make_unique<Rmse>());

  // Chunk of trips that all violate the sanity filter (zero distance).
  RawChunk anomalies = Chunk(0, {});
  for (int i = 0; i < 10; ++i) {
    anomalies.records.push_back(
        "2015-01-01 10:00:00,2015-01-01 10:05:00,-73.97,40.75,-73.97,40.75,1");
  }
  TaxiStreamGenerator::Config config;
  config.records_per_chunk = 20;
  config.anomaly_prob = 0.0;
  config.seed = 5;
  TaxiStreamGenerator generator(config);
  RawChunk good = generator.NextChunk();
  good.id = 1;

  auto report = deployment.Run({anomalies, good});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The anomaly chunk contributed zero prequential observations.
  EXPECT_EQ(report->curve.front().observations, 0);
  EXPECT_EQ(report->curve.back().observations, 20);
}

TEST(FailureInjectionTest, DuplicateChunkIdRejectedCleanly) {
  auto deployment = MakeUrlDeployment();
  std::vector<RawChunk> stream = {
      Chunk(5, {"+1 3:1.0"}),
      Chunk(5, {"-1 5:1.0"}),  // duplicate id: ingestion must fail
  };
  auto report = deployment->Run(stream);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(FailureInjectionTest, ProactiveTrainingSurvivesSparseHistory) {
  // Only empty/garbage history: proactive iterations sample chunks whose
  // feature sets are empty; training must be a clean no-op.
  auto deployment = MakeUrlDeployment();
  std::vector<RawChunk> stream;
  for (ChunkId id = 0; id < 12; ++id) {
    stream.push_back(Chunk(id, {"garbage record"}));
  }
  auto report = deployment->Run(stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->curve.back().observations, 0);
  EXPECT_EQ(report->proactive_iterations(), 4);  // every 3 chunks
}

}  // namespace
}  // namespace cdpipe

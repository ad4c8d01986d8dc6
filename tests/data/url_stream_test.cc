#include "src/data/url_stream.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "src/pipeline/input_parser.h"
#include "src/pipeline/pipeline.h"

namespace cdpipe {
namespace {

UrlStreamGenerator::Config SmallConfig() {
  UrlStreamGenerator::Config config;
  config.feature_dim = 5000;
  config.initial_active_features = 300;
  config.new_features_per_chunk = 2;
  config.records_per_chunk = 50;
  config.nnz_per_record = 12;
  config.seed = 3;
  return config;
}

TEST(UrlStreamTest, ChunkShapeAndTimestamps) {
  UrlStreamGenerator generator(SmallConfig());
  auto chunks = generator.Generate(3);
  ASSERT_EQ(chunks.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chunks[i].id, static_cast<ChunkId>(i));
    EXPECT_EQ(chunks[i].event_time_seconds, static_cast<int64_t>(i * 60));
    EXPECT_EQ(chunks[i].records.size(), 50u);
  }
}

TEST(UrlStreamTest, RecordsParseAsLibSvm) {
  UrlStreamGenerator generator(SmallConfig());
  RawChunk chunk = generator.NextChunk();
  InputParser::Options options;
  options.feature_dim = SmallConfig().feature_dim;
  Pipeline pipeline;
  ASSERT_TRUE(
      pipeline.AddComponent(std::make_unique<InputParser>(options)).ok());
  auto result = pipeline.Transform(chunk);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FeatureData& features = *result;
  // Every generated record parses: none is dropped as malformed.
  EXPECT_EQ(features.num_rows(), 50u);
  for (double label : features.labels) {
    EXPECT_TRUE(label == 1.0 || label == -1.0);
  }
}

TEST(UrlStreamTest, BothClassesPresent) {
  UrlStreamGenerator generator(SmallConfig());
  int positive = 0;
  int total = 0;
  for (const RawChunk& chunk : generator.Generate(20)) {
    for (const std::string& record : chunk.records) {
      ++total;
      if (record[0] == '+') ++positive;
    }
  }
  EXPECT_GT(positive, total / 10);
  EXPECT_LT(positive, total * 9 / 10);
}

TEST(UrlStreamTest, NewFeaturesActivateOverTime) {
  UrlStreamGenerator generator(SmallConfig());
  const size_t before = generator.num_active_features();
  generator.Generate(10);
  EXPECT_EQ(generator.num_active_features(), before + 20);
}

TEST(UrlStreamTest, MissingValuesAppear) {
  UrlStreamGenerator::Config config = SmallConfig();
  config.missing_prob = 0.2;
  UrlStreamGenerator generator(config);
  bool saw_nan = false;
  for (const RawChunk& chunk : generator.Generate(5)) {
    for (const std::string& record : chunk.records) {
      if (record.find(":nan") != std::string::npos) saw_nan = true;
    }
  }
  EXPECT_TRUE(saw_nan);
}

TEST(UrlStreamTest, DeterministicGivenSeed) {
  UrlStreamGenerator a(SmallConfig());
  UrlStreamGenerator b(SmallConfig());
  EXPECT_EQ(a.NextChunk().records, b.NextChunk().records);
}

TEST(UrlStreamTest, DifferentSeedsDiffer) {
  UrlStreamGenerator::Config other = SmallConfig();
  other.seed = 4;
  UrlStreamGenerator a(SmallConfig());
  UrlStreamGenerator b(other);
  EXPECT_NE(a.NextChunk().records, b.NextChunk().records);
}

TEST(UrlPipelineTest, FactoryBuildsFiveStagePipeline) {
  UrlPipelineConfig config;
  config.raw_dim = 5000;
  config.hash_bits = 8;
  auto pipeline = MakeUrlPipeline(config);
  // parser, imputer, scaler, hasher (the model is attached separately).
  EXPECT_EQ(pipeline->num_components(), 4u);
  LinearModel::Options model_options = MakeUrlModelOptions(config);
  EXPECT_EQ(model_options.loss, LossKind::kHinge);
  EXPECT_EQ(model_options.initial_dim, 256u);
}

TEST(UrlPipelineTest, EndToEndOverGeneratedChunk) {
  UrlPipelineConfig pipe_config;
  pipe_config.raw_dim = 5000;
  pipe_config.hash_bits = 8;
  auto pipeline = MakeUrlPipeline(pipe_config);
  UrlStreamGenerator generator(SmallConfig());
  RawChunk chunk = generator.NextChunk();
  auto features = pipeline->UpdateAndTransform(chunk);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(features->num_rows(), 50u);
  EXPECT_EQ(features->dim, 256u);
  // No NaN survives the imputer.
  for (const SparseVector& x : features->features) {
    for (double v : x.values()) EXPECT_FALSE(std::isnan(v));
  }
}

}  // namespace
}  // namespace cdpipe

#include "src/pipeline/pipeline.h"

#include <gtest/gtest.h>

#include "src/data/url_stream.h"
#include "src/pipeline/feature_hasher.h"
#include "src/pipeline/input_parser.h"
#include "src/pipeline/missing_value_imputer.h"
#include "src/pipeline/standard_scaler.h"

namespace cdpipe {
namespace {

RawChunk MakeChunk(std::vector<std::string> lines) {
  RawChunk chunk;
  chunk.id = 1;
  chunk.records = std::move(lines);
  return chunk;
}

std::unique_ptr<Pipeline> SmallUrlPipeline() {
  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 6;
  return MakeUrlPipeline(config);
}

TEST(PipelineTest, RejectsNullComponent) {
  Pipeline pipeline;
  EXPECT_FALSE(pipeline.AddComponent(nullptr).ok());
}

TEST(PipelineTest, UrlPipelineEndToEnd) {
  auto pipeline = SmallUrlPipeline();
  EXPECT_EQ(pipeline->num_components(), 4u);
  RawChunk chunk = MakeChunk({"+1 3:1.0 17:2.0", "-1 5:nan 7:1.0"});
  size_t rows_scanned = 0;
  auto features = pipeline->UpdateAndTransform(chunk, &rows_scanned);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(features->num_rows(), 2u);
  EXPECT_EQ(features->dim, 64u);
  EXPECT_DOUBLE_EQ(features->labels[0], 1.0);
  EXPECT_DOUBLE_EQ(features->labels[1], -1.0);
  // 2 rows through parser(1 scan) + imputer(2) + scaler(2) + hasher(1)
  // = 2 * 6 = 12 row-scans.
  EXPECT_EQ(rows_scanned, 12u);
}

TEST(PipelineTest, TransformDoesNotMutateStatistics) {
  auto pipeline = SmallUrlPipeline();
  RawChunk chunk = MakeChunk({"+1 3:2.0", "+1 3:4.0"});
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());

  // A pure Transform must not change what a later Transform produces.
  RawChunk probe = MakeChunk({"+1 3:2.0"});
  auto first = pipeline->Transform(probe);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pipeline->Transform(MakeChunk({"+1 3:100.0"})).ok());
  }
  auto second = pipeline->Transform(probe);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->features[0] == second->features[0]);
}

TEST(PipelineTest, UpdateAndTransformMutatesStatistics) {
  auto pipeline = SmallUrlPipeline();
  ASSERT_TRUE(
      pipeline->UpdateAndTransform(MakeChunk({"+1 3:2.0", "+1 3:6.0"})).ok());
  auto before = pipeline->Transform(MakeChunk({"+1 3:2.0"}));
  ASSERT_TRUE(before.ok());
  // Feeding very different data changes the scaler statistics.
  ASSERT_TRUE(pipeline
                  ->UpdateAndTransform(
                      MakeChunk({"+1 3:100.0", "+1 3:-100.0", "+1 3:50.0"}))
                  .ok());
  auto after = pipeline->Transform(MakeChunk({"+1 3:2.0"}));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(before->features[0] == after->features[0]);
}

TEST(PipelineTest, TransformRecomputingStatisticsLeavesDeployedStateAlone) {
  auto pipeline = SmallUrlPipeline();
  ASSERT_TRUE(
      pipeline->UpdateAndTransform(MakeChunk({"+1 3:2.0", "+1 3:6.0"})).ok());
  auto probe_before = pipeline->Transform(MakeChunk({"+1 3:2.0"}));
  ASSERT_TRUE(probe_before.ok());

  size_t rows_scanned = 0;
  auto recomputed = pipeline->TransformRecomputingStatistics(
      MakeChunk({"+1 3:50.0", "+1 3:70.0"}), &rows_scanned);
  ASSERT_TRUE(recomputed.ok());
  // Extra statistic-recomputation scans happened (2 stateful components,
  // each rescans): 2 rows * (4 components + 2 rescans) versus the pure
  // path's 2 rows * 4 components.
  EXPECT_EQ(rows_scanned, 12u);

  auto probe_after = pipeline->Transform(MakeChunk({"+1 3:2.0"}));
  ASSERT_TRUE(probe_after.ok());
  EXPECT_TRUE(probe_before->features[0] == probe_after->features[0]);
}

TEST(PipelineTest, PipelineWithoutVectorizerFails) {
  Pipeline pipeline;
  InputParser::Options parser;
  parser.format = InputParser::Format::kCsv;
  parser.csv_schema =
      std::move(Schema::Make({Field{"x", ValueType::kDouble}})).ValueOrDie();
  ASSERT_TRUE(
      pipeline.AddComponent(std::make_unique<InputParser>(parser)).ok());
  auto result = pipeline.UpdateAndTransform(MakeChunk({"1.5"}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, CloneIsDeepIncludingStatistics) {
  auto pipeline = SmallUrlPipeline();
  ASSERT_TRUE(
      pipeline->UpdateAndTransform(MakeChunk({"+1 3:2.0", "+1 3:6.0"})).ok());
  auto clone = pipeline->Clone();

  auto original_out = pipeline->Transform(MakeChunk({"+1 3:2.0"}));
  auto clone_out = clone->Transform(MakeChunk({"+1 3:2.0"}));
  ASSERT_TRUE(original_out.ok());
  ASSERT_TRUE(clone_out.ok());
  EXPECT_TRUE(original_out->features[0] == clone_out->features[0]);

  // Diverge the clone: the original must not change.
  ASSERT_TRUE(clone->UpdateAndTransform(MakeChunk({"+1 3:1000.0"})).ok());
  auto original_again = pipeline->Transform(MakeChunk({"+1 3:2.0"}));
  ASSERT_TRUE(original_again.ok());
  EXPECT_TRUE(original_out->features[0] == original_again->features[0]);
}

TEST(PipelineTest, ToStringListsComponents) {
  auto pipeline = SmallUrlPipeline();
  const std::string s = pipeline->ToString();
  EXPECT_NE(s.find("input_parser"), std::string::npos);
  EXPECT_NE(s.find("feature_hasher"), std::string::npos);
}

}  // namespace
}  // namespace cdpipe

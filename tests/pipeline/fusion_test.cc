#include "src/pipeline/fusion/fusion.h"

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/io/serialization.h"
#include "src/obs/metrics.h"
#include "src/pipeline/anomaly_filter.h"
#include "src/pipeline/column_projector.h"
#include "src/pipeline/feature_hasher.h"
#include "src/pipeline/input_parser.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/vector_assembler.h"
#include "src/pipeline/zscore_anomaly_detector.h"
#include "tests/spec/pipeline_spec.h"
#include "tests/testing/feature_data_test_util.h"

// Unit coverage for the planner itself: one compiled plan per pipeline,
// compile errors, compile-time elision, per-component timing, and the
// cost-accounting / dropped-counter parity with the interpreted
// component-at-a-time contract as the row-at-a-time spec (tests/spec)
// states it.  Bitwise output equivalence at scale lives in
// tests/golden/transform_equivalence_test.cc and
// tests/spec/spec_differential_test.cc.

namespace cdpipe {
namespace {

RawChunk MakeChunk(ChunkId id, std::vector<std::string> records) {
  RawChunk chunk;
  chunk.id = id;
  chunk.records = std::move(records);
  return chunk;
}

std::unique_ptr<Pipeline> SmallUrlPipeline() {
  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 6;
  return MakeUrlPipeline(config);
}

TEST(PlanCacheTest, MissCompileThenHit) {
  auto pipeline = SmallUrlPipeline();
  RawChunk chunk = MakeChunk(0, {"+1 3:1.0 17:2.0", "-1 5:0.5 7:1.0"});
  EXPECT_EQ(pipeline->plan_compiles(), 0u);
  // The online path compiles the plan on first use...
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());
  EXPECT_EQ(pipeline->plan_compiles(), 1u);

  // ...and the pure path reuses it, statistics changes notwithstanding.
  ASSERT_TRUE(pipeline->Transform(chunk).ok());
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());
  ASSERT_TRUE(pipeline->Transform(chunk).ok());
  EXPECT_EQ(pipeline->plan_compiles(), 1u);
}

TEST(PlanCacheTest, LoadStateKeepsPlanAndReadsRestoredStatistics) {
  auto pipeline = SmallUrlPipeline();
  RawChunk chunk = MakeChunk(0, {"+1 3:1.0", "-1 5:2.0", "+1 3:nan"});
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());
  const FeatureData before = std::move(pipeline->Transform(chunk)).ValueOrDie();

  std::stringstream state;
  Serializer out(&state);
  ASSERT_TRUE(pipeline->SaveState(&out).ok());
  // Move the statistics on, then restore the saved ones.
  ASSERT_TRUE(
      pipeline->UpdateAndTransform(MakeChunk(1, {"+1 3:50", "-1 5:-9"})).ok());
  ASSERT_FALSE(testing::FeatureDataBitEqual(
      before, std::move(pipeline->Transform(chunk)).ValueOrDie()));
  Deserializer in(&state);
  ASSERT_TRUE(pipeline->LoadState(&in).ok());
  EXPECT_TRUE(testing::FeatureDataBitEqual(
      before, std::move(pipeline->Transform(chunk)).ValueOrDie()));
  EXPECT_EQ(pipeline->plan_compiles(), 1u);
}

TEST(PlanCacheTest, CompileErrorsAreReturnedNotCached) {
  // A misconfigured component fails the transform with its own status,
  // on every call — nothing falls back and nothing is cached.
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  Pipeline pipeline;
  InputParser::Options parser;
  parser.format = InputParser::Format::kCsv;
  parser.csv_schema = schema;
  ASSERT_TRUE(
      pipeline.AddComponent(std::make_unique<InputParser>(parser)).ok());
  ASSERT_TRUE(
      pipeline
          .AddComponent(std::make_unique<AnomalyFilter>(
              "missing",
              std::vector<AnomalyFilter::Rule>{{"missing", 0.0, 1.0}}))
          .ok());
  VectorAssembler::Options assembler;
  assembler.feature_columns = {"x"};
  assembler.label_column = "label";
  ASSERT_TRUE(
      pipeline.AddComponent(std::make_unique<VectorAssembler>(assembler)).ok());

  RawChunk chunk = MakeChunk(0, {"1.5,1.0"});
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(pipeline.Transform(chunk).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(pipeline.UpdateAndTransform(chunk).status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_EQ(pipeline.plan_compiles(), 0u);
}

TEST(PlanCacheTest, AddComponentDropsCachedPlan) {
  Pipeline pipeline;
  InputParser::Options parser;
  parser.feature_dim = 100;
  ASSERT_TRUE(
      pipeline.AddComponent(std::make_unique<InputParser>(parser)).ok());
  RawChunk chunk = MakeChunk(0, {"+1 3:1.0 17:2.0"});
  EXPECT_EQ(std::move(pipeline.Transform(chunk)).ValueOrDie().dim, 100u);
  FeatureHasher::Options hasher;
  hasher.bits = 4;
  ASSERT_TRUE(
      pipeline.AddComponent(std::make_unique<FeatureHasher>(hasher)).ok());
  EXPECT_EQ(std::move(pipeline.Transform(chunk)).ValueOrDie().dim, 16u);
  EXPECT_EQ(pipeline.plan_compiles(), 2u);
}

TEST(FusedPlanTest, CompileElidesProjectionAndExecutes) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"junk", ValueType::kString},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  InputParser::Options parser_options;
  parser_options.format = InputParser::Format::kCsv;
  parser_options.csv_schema = schema;
  InputParser parser(parser_options);
  ColumnProjector projector(std::vector<std::string>{"x", "label"});
  VectorAssembler::Options assembler_options;
  assembler_options.feature_columns = {"x"};
  assembler_options.label_column = "label";
  VectorAssembler assembler(assembler_options);

  std::shared_ptr<const fusion::FusedPlan> plan =
      std::move(fusion::FusedPlan::Compile({&parser, &projector, &assembler}))
          .ValueOrDie();
  // The projector contributes no runtime stage, only a compile-time
  // remapping: it must be accounted as elided at compile time.
  EXPECT_GE(plan->stats().compile_elided, 1u);

  std::vector<std::string> records = {"2.5,noise,1.0", "0.25,more,0.0"};
  fusion::ExecScratch scratch;
  FeatureData out;
  size_t rows_scanned = 0;
  ASSERT_TRUE(plan->Execute(records, &scratch, &out, &rows_scanned).ok());
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.dim, 1u);
  EXPECT_DOUBLE_EQ(out.labels[0], 1.0);
  EXPECT_DOUBLE_EQ(out.features[0].values()[0], 2.5);
  // parser(1) + projector(1) + assembler(1) per row.
  EXPECT_EQ(rows_scanned, 6u);
}

TEST(FusedPlanTest, DeclinesChainWithoutVectorizingSink) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble}}))
                    .ValueOrDie();
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema = schema;
  InputParser parser(options);
  const Status status = fusion::FusedPlan::Compile({&parser}).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("vectorizing"), std::string::npos);
}

// "Interpreted" below is the component-at-a-time contract as the
// row-at-a-time spec states it: rows_scanned counts every component's scan
// of its input, twice for a stateful component on the online path.
TEST(FusionParityTest, RowsScannedMatchesInterpreted) {
  auto pipeline = SmallUrlPipeline();
  spec::SpecPipeline reference =
      std::move(spec::SpecPipeline::Of(*pipeline)).ValueOrDie();
  RawChunk chunk =
      MakeChunk(0, {"+1 3:1.0 17:2.0", "-1 5:nan 7:1.0", "+1 9:4.0", "bad"});

  size_t plan_scans = 0;
  size_t spec_scans = 0;
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk, &plan_scans).ok());
  ASSERT_TRUE(reference.UpdateAndTransform(chunk, &spec_scans).ok());
  // 4 raw rows parsed, 3 survive: 4 + 3 * (2 + 2 + 1).
  EXPECT_EQ(plan_scans, 19u);
  EXPECT_EQ(plan_scans, spec_scans);

  plan_scans = 0;
  spec_scans = 0;
  ASSERT_TRUE(pipeline->Transform(chunk, &plan_scans).ok());
  ASSERT_TRUE(reference.Transform(chunk, &spec_scans).ok());
  EXPECT_EQ(plan_scans, 4u + 3u * 3u);
  EXPECT_EQ(plan_scans, spec_scans);
}

TEST(FusionParityTest, DroppedCountersMatchInterpreted) {
  // The filter kernels report drops through the components' counters, in
  // step with the spec's per-stage counts.
  auto pipeline = MakeTaxiPipeline();
  spec::SpecPipeline reference =
      std::move(spec::SpecPipeline::Of(*pipeline)).ValueOrDie();
  TaxiStreamGenerator::Config stream;
  stream.records_per_chunk = 256;
  stream.anomaly_prob = 0.2;
  stream.seed = 41;
  std::vector<RawChunk> chunks = TaxiStreamGenerator(stream).Generate(2);

  ASSERT_TRUE(pipeline->UpdateAndTransform(chunks[0]).ok());
  ASSERT_TRUE(reference.UpdateAndTransform(chunks[0]).ok());
  FeatureData a = std::move(pipeline->Transform(chunks[1])).ValueOrDie();
  FeatureData b = std::move(reference.Transform(chunks[1])).ValueOrDie();
  EXPECT_TRUE(testing::FeatureDataBitEqual(b, a));
  size_t filter_drops = 0;
  for (size_t i = 0; i < pipeline->num_components(); ++i) {
    EXPECT_EQ(spec::CounterOf(pipeline->component(i)),
              reference.stage(i).dropped)
        << pipeline->component(i).name();
    if (dynamic_cast<const AnomalyFilter*>(&pipeline->component(i))) {
      filter_drops += spec::CounterOf(pipeline->component(i));
    }
  }
  EXPECT_GT(filter_drops, 0u)
      << "fixture produced no anomalies; raise anomaly_prob";
}

TEST(FusionParityTest, ZScoreDropsAndElisionMatchInterpreted) {
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  auto pipeline = std::make_unique<Pipeline>();
  InputParser::Options parser;
  parser.format = InputParser::Format::kCsv;
  parser.csv_schema = schema;
  ASSERT_TRUE(
      pipeline->AddComponent(std::make_unique<InputParser>(parser)).ok());
  ZScoreAnomalyDetector::Options zscore;
  zscore.columns = {"x"};
  zscore.threshold = 2.0;
  zscore.min_observations = 4;
  ASSERT_TRUE(pipeline
                  ->AddComponent(
                      std::make_unique<ZScoreAnomalyDetector>(zscore))
                  .ok());
  VectorAssembler::Options assembler;
  assembler.feature_columns = {"x"};
  assembler.label_column = "label";
  ASSERT_TRUE(
      pipeline->AddComponent(std::make_unique<VectorAssembler>(assembler))
          .ok());
  spec::SpecPipeline reference =
      std::move(spec::SpecPipeline::Of(*pipeline)).ValueOrDie();
  const auto& detector =
      dynamic_cast<const ZScoreAnomalyDetector&>(pipeline->component(1));
  RawChunk probe = MakeChunk(1, {"1.5,1.0", "100.0,0.0", "2.5,1.0"});

  // Below min_observations the detector does no per-row work: the block
  // counts as elided and nothing is dropped.
  obs::Counter* elided = obs::MetricsRegistry::Global().GetCounter(
      "pipeline.stages_elided", "");
  const int64_t elided_before = elided->Value();
  FeatureData cold = std::move(pipeline->Transform(probe)).ValueOrDie();
  EXPECT_TRUE(testing::FeatureDataBitEqual(
      std::move(reference.Transform(probe)).ValueOrDie(), cold));
  EXPECT_EQ(cold.num_rows(), 3u);
  EXPECT_EQ(detector.num_dropped(), 0u);
  EXPECT_GT(elided->Value(), elided_before)
      << "statistics-free detector was not elided";

  // Warmed up past min_observations, the same plan drops the outlier.
  RawChunk warmup =
      MakeChunk(0, {"1.0,1.0", "2.0,0.0", "1.5,1.0", "2.5,0.0", "1.75,1.0"});
  ASSERT_TRUE(pipeline->UpdateAndTransform(warmup).ok());
  ASSERT_TRUE(reference.UpdateAndTransform(warmup).ok());
  FeatureData warm = std::move(pipeline->Transform(probe)).ValueOrDie();
  EXPECT_TRUE(testing::FeatureDataBitEqual(
      std::move(reference.Transform(probe)).ValueOrDie(), warm));
  EXPECT_EQ(warm.num_rows(), 2u);
  EXPECT_EQ(detector.num_dropped(), reference.stage(1).dropped);
  EXPECT_EQ(detector.num_dropped(), 1u);
  EXPECT_EQ(pipeline->plan_compiles(), 1u);
}

TEST(FusionTimingTest, EveryPathRecordsPerComponentTransformSeconds) {
  // The per-component histograms are fed by the plan's execute loop, so
  // the online path, re-materialization and serving all record them.
  auto pipeline = SmallUrlPipeline();
  RawChunk chunk = MakeChunk(0, {"+1 3:1.0", "-1 5:2.0"});
  obs::Histogram* hasher = obs::MetricsRegistry::Global().GetHistogram(
      "pipeline.component.feature_hasher.transform_seconds");
  uint64_t before = hasher->TotalCount();
  ASSERT_TRUE(pipeline->UpdateAndTransform(chunk).ok());
  EXPECT_EQ(hasher->TotalCount(), before + 1);
  before = hasher->TotalCount();
  ASSERT_TRUE(pipeline->Transform(chunk).ok());
  EXPECT_EQ(hasher->TotalCount(), before + 1);
}

TEST(StatsMemoTest, RebindResetsOnlyFilledCells) {
  fusion::StatsMemo memo;
  memo.Bind(/*serial=*/1, /*dim=*/8);
  memo.sd[3] = 2.0;
  memo.filled.push_back(3);
  memo.sd[5] = 4.0;  // written without being recorded: must survive
  memo.Bind(1, 8);   // same serial: cells stay valid
  EXPECT_EQ(memo.sd[3], 2.0);
  memo.Bind(2, 8);  // new statistics: only recorded cells reset
  EXPECT_EQ(memo.sd[3], fusion::StatsMemo::kUnfilled);
  EXPECT_EQ(memo.sd[5], 4.0);
  EXPECT_TRUE(memo.filled.empty());
  memo.Bind(2, 16);  // new dim: everything resets
  EXPECT_EQ(memo.sd.size(), 16u);
  EXPECT_EQ(memo.sd[5], fusion::StatsMemo::kUnfilled);
}

}  // namespace
}  // namespace cdpipe

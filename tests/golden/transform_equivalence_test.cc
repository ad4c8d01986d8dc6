// Transform-equivalence suite: the compiled block plan must reproduce the
// committed goldens — generated by the seed row-at-a-time implementation —
// bit for bit, on every fixture, for both pipeline entry points
// (UpdateAndTransform chunk by chunk, then frozen-statistics Transform)
// and for the engine-sharded Transform across thread counts {1, 4}.  The
// row-at-a-time spec (tests/spec) is held to the same goldens, which makes
// it the reference the plan is checked against everywhere else.
//
// Regenerate the goldens with cdpipe_golden_generator ONLY when a fixture
// is deliberately changed, never to paper over an output difference.

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/execution_engine.h"
#include "tests/golden/golden_pipelines.h"
#include "tests/spec/pipeline_spec.h"

namespace cdpipe {
namespace golden {
namespace {

std::string GoldenPath(const std::string& case_name) {
  return std::string(CDPIPE_GOLDEN_DATA_DIR) + "/" + case_name + ".golden";
}

/// Bitwise double-vector equality: NaN payloads and signed zeros must
/// survive the columnar path unchanged, so == comparison is not enough.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectFeatureDataBitEqual(const FeatureData& expected,
                               const FeatureData& actual,
                               const std::string& context) {
  EXPECT_EQ(expected.dim, actual.dim) << context;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << context;
  EXPECT_TRUE(BitEqual(expected.labels, actual.labels)) << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    EXPECT_EQ(expected.features[r].indices(), actual.features[r].indices())
        << context << " row " << r;
    EXPECT_TRUE(
        BitEqual(expected.features[r].values(), actual.features[r].values()))
        << context << " row " << r;
  }
}

/// Loads the committed golden outputs for one case: first the per-chunk
/// UpdateAndTransform outputs, then the frozen-statistics Transform
/// outputs (same chunk order) — the protocol WriteGoldenCase follows.
struct GoldenOutputs {
  std::vector<FeatureData> online;
  std::vector<FeatureData> frozen;
};

GoldenOutputs ReadGoldenOutputs(const std::string& case_name,
                                size_t num_chunks) {
  std::ifstream is(GoldenPath(case_name), std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden file for " << case_name
                         << "; run cdpipe_golden_generator";
  Deserializer in(&is);
  GoldenOutputs out;
  std::string name = std::move(in.ReadString("golden.case")).ValueOrDie();
  EXPECT_EQ(name, case_name);
  int64_t chunks = std::move(in.ReadInt("golden.num_chunks")).ValueOrDie();
  EXPECT_EQ(static_cast<size_t>(chunks), num_chunks);
  for (int64_t i = 0; i < 2 * chunks; ++i) {
    FeatureData data = std::move(ReadFeatureData(&in)).ValueOrDie();
    if (i < chunks) {
      out.online.push_back(std::move(data));
    } else {
      out.frozen.push_back(std::move(data));
    }
  }
  return out;
}

class TransformEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TransformEquivalenceTest, MatchesSeedGoldens) {
  const size_t engine_threads = GetParam();
  std::unique_ptr<ExecutionEngine> engine;
  if (engine_threads > 0) {
    engine = std::make_unique<ExecutionEngine>(engine_threads);
  }
  for (GoldenCase& c : AllGoldenCases()) {
    SCOPED_TRACE("case " + c.name);
    const GoldenOutputs golden = ReadGoldenOutputs(c.name, c.chunks.size());

    // Online path: statistics fold in chunk by chunk.  This path is always
    // serial (Update mutates component state) regardless of the engine.
    for (size_t i = 0; i < c.chunks.size(); ++i) {
      FeatureData data =
          std::move(c.pipeline->UpdateAndTransform(c.chunks[i])).ValueOrDie();
      ExpectFeatureDataBitEqual(golden.online[i], data,
                                c.name + " online chunk " + std::to_string(i));
    }

    // Re-materialization path: statistics frozen after the last chunk; the
    // engine-sharded call must concatenate shard outputs into exactly the
    // serial (and seed row-path) result for any thread count.
    for (size_t i = 0; i < c.chunks.size(); ++i) {
      FeatureData data =
          std::move(c.pipeline->Transform(c.chunks[i], engine.get()))
              .ValueOrDie();
      ExpectFeatureDataBitEqual(golden.frozen[i], data,
                                c.name + " frozen chunk " + std::to_string(i));
    }

    // One plan, compiled on first use, served the online and pure paths.
    EXPECT_EQ(c.pipeline->plan_cache()->compiles(), 1u) << c.name;
  }
}

// The row-at-a-time spec reproduces the seed goldens hexfloat-exact on
// both entry points — the check that makes it a trustworthy reference.
TEST(SpecGoldenTest, MatchesSeedGoldens) {
  for (GoldenCase& c : AllGoldenCases()) {
    SCOPED_TRACE("case " + c.name);
    const GoldenOutputs golden = ReadGoldenOutputs(c.name, c.chunks.size());
    spec::SpecPipeline reference =
        std::move(spec::SpecPipeline::Of(*c.pipeline)).ValueOrDie();
    for (size_t i = 0; i < c.chunks.size(); ++i) {
      ExpectFeatureDataBitEqual(
          golden.online[i],
          std::move(reference.UpdateAndTransform(c.chunks[i])).ValueOrDie(),
          c.name + " online chunk " + std::to_string(i));
    }
    for (size_t i = 0; i < c.chunks.size(); ++i) {
      ExpectFeatureDataBitEqual(
          golden.frozen[i],
          std::move(reference.Transform(c.chunks[i])).ValueOrDie(),
          c.name + " frozen chunk " + std::to_string(i));
    }
  }
}

// Plans do not depend on statistics: a Transform after each
// UpdateAndTransform reuses the one compiled plan, reads the new
// statistics, and stays bit-identical to the spec on the same statistics.
TEST(PlanReuseTest, UpdateMidStreamReusesPlanAndStaysBitIdentical) {
  for (GoldenCase& c : AllGoldenCases()) {
    SCOPED_TRACE("case " + c.name);
    spec::SpecPipeline reference =
        std::move(spec::SpecPipeline::Of(*c.pipeline)).ValueOrDie();
    for (size_t i = 0; i < c.chunks.size(); ++i) {
      ASSERT_TRUE(c.pipeline->UpdateAndTransform(c.chunks[i]).ok());
      ASSERT_TRUE(reference.UpdateAndTransform(c.chunks[i]).ok());
      const uint64_t hits_before = c.pipeline->plan_cache()->hits();
      FeatureData plan =
          std::move(c.pipeline->Transform(c.chunks[i])).ValueOrDie();
      ExpectFeatureDataBitEqual(
          std::move(reference.Transform(c.chunks[i])).ValueOrDie(), plan,
          c.name + " after update " + std::to_string(i));
      EXPECT_GT(c.pipeline->plan_cache()->hits(), hits_before) << c.name;
      EXPECT_EQ(c.pipeline->plan_cache()->compiles(), 1u)
          << c.name << ": statistics update " << i << " forced a recompile";
    }
  }
}

// The golden fixtures are 150 rows — one shard.  This test runs chunks
// large enough to split across engine shards (rows/256 shards) and checks
// that the sharded plan concatenates into exactly the serial result of the
// row-at-a-time spec (the serial interpreter every path is held to), on
// both streaming workloads.
TEST(ShardedFusedEquivalenceTest, MatchesSerialInterpreted) {
  ExecutionEngine engine(4);
  std::vector<GoldenCase> cases;
  {
    GoldenCase url;
    url.name = "url-large";
    UrlPipelineConfig config;
    config.raw_dim = 1u << 16;
    config.hash_bits = 12;
    url.pipeline = MakeUrlPipeline(config);
    UrlStreamGenerator::Config stream;
    stream.feature_dim = config.raw_dim;
    stream.initial_active_features = 3000;
    stream.records_per_chunk = 1024;
    stream.missing_prob = 0.02;
    stream.seed = 23;
    url.chunks = UrlStreamGenerator(stream).Generate(2);
    cases.push_back(std::move(url));
  }
  {
    GoldenCase taxi;
    taxi.name = "taxi-large";
    taxi.pipeline = MakeTaxiPipeline();
    TaxiStreamGenerator::Config stream;
    stream.records_per_chunk = 1024;
    stream.anomaly_prob = 0.05;
    stream.seed = 29;
    taxi.chunks = TaxiStreamGenerator(stream).Generate(2);
    cases.push_back(std::move(taxi));
  }
  for (GoldenCase& c : cases) {
    SCOPED_TRACE("case " + c.name);
    spec::SpecPipeline reference =
        std::move(spec::SpecPipeline::Of(*c.pipeline)).ValueOrDie();
    // Calibrate statistics on the first chunk, then compare on both.
    ASSERT_TRUE(c.pipeline->UpdateAndTransform(c.chunks[0]).ok());
    ASSERT_TRUE(reference.UpdateAndTransform(c.chunks[0]).ok());
    for (size_t i = 0; i < c.chunks.size(); ++i) {
      const FeatureData expected =
          std::move(reference.Transform(c.chunks[i])).ValueOrDie();
      for (ExecutionEngine* eng : {static_cast<ExecutionEngine*>(nullptr),
                                   &engine}) {
        ExpectFeatureDataBitEqual(
            expected,
            std::move(c.pipeline->Transform(c.chunks[i], eng)).ValueOrDie(),
            c.name + (eng == nullptr ? " serial" : " sharded") + " chunk " +
                std::to_string(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EngineThreads, TransformEquivalenceTest,
                         ::testing::Values(0, 1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 0
                                      ? std::string("Serial")
                                      : "Engine" +
                                            std::to_string(info.param) +
                                            "Threads";
                         });

}  // namespace
}  // namespace golden
}  // namespace cdpipe

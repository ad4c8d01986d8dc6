// Differential test: the compiled block plan against the row-at-a-time
// spec (tests/spec/pipeline_spec.h) on seeded random chunks — nulls, NaN
// payloads, -0.0, malformed rows, unseen categories, filtered rows — for
// the online path, the pure path and the NoOptimization path.  Features, labels, rows_scanned
// and the malformed / dropped counters must all agree exactly.

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/pipeline/anomaly_filter.h"
#include "src/pipeline/column_projector.h"
#include "src/pipeline/feature_hasher.h"
#include "src/pipeline/input_parser.h"
#include "src/pipeline/missing_value_imputer.h"
#include "src/pipeline/one_hot_encoder.h"
#include "src/pipeline/standard_scaler.h"
#include "src/pipeline/vector_assembler.h"
#include "src/pipeline/zscore_anomaly_detector.h"
#include "tests/spec/pipeline_spec.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace spec {
namespace {

void Add(Pipeline* pipeline, std::unique_ptr<PipelineComponent> component) {
  CDPIPE_CHECK(pipeline->AddComponent(std::move(component)).ok());
}

std::shared_ptr<const Schema> MakeSchema(std::vector<Field> fields) {
  return std::move(Schema::Make(std::move(fields))).ValueOrDie();
}

InputParser::Options Csv(std::shared_ptr<const Schema> schema) {
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema = std::move(schema);
  return options;
}

/// A numeric cell: mostly ordinary values, with the awkward ones — signed
/// zeros, tiny and huge magnitudes and, when `nan`, NaN payloads — mixed
/// in.  (A NaN folded into running moments poisons them for good, so
/// statistics-bearing columns get no NaN.)
std::string Number(Rng* rng, bool nan) {
  static const char* kAwkward[] = {"-0.0",  "0",   "1e-300", "-1e300",
                                   "nan",   "-nan", "NaN",   "nan(7)"};
  if (rng->NextBernoulli(0.15)) {
    return kAwkward[rng->NextBounded(nan ? 8 : 4)];
  }
  return StrFormat("%.17g", rng->NextGaussian(0.5, 3.0));
}

std::string Garbage(Rng* rng) {
  static const char* kGarbage[] = {"", "garbage", "1 2:x", "1,2", ",,,,,,,",
                                   "+1 999999:1", "1 -3:1", "1 4.5:2"};
  return kGarbage[rng->NextBounded(sizeof(kGarbage) / sizeof(kGarbage[0]))];
}

/// One differential fixture: a pipeline factory and a random record source.
struct Fixture {
  std::string name;
  std::function<std::unique_ptr<Pipeline>()> make;
  std::function<std::string(Rng*)> record;
};

/// Test ids print the fixture by name (the default dumps its bytes).
void PrintTo(const Fixture& fixture, std::ostream* os) { *os << fixture.name; }

/// libsvm records over 64 raw features with duplicate and unsorted
/// indices, NaN markers and malformed lines.
std::string SparseRecord(Rng* rng) {
  if (rng->NextBernoulli(0.05)) return Garbage(rng);
  std::string line = rng->NextBernoulli(0.5) ? "+1" : "-1";
  const int64_t nnz = rng->NextInt(0, 12);
  for (int64_t k = 0; k < nnz; ++k) {
    line += StrFormat(" %lld:", static_cast<long long>(rng->NextInt(0, 63)));
    line += Number(rng, /*nan=*/true);
  }
  return line;
}

/// libsvm -> 8-bucket hasher: NaN payloads reach the hasher, and three-way
/// bucket collisions are common, so both of its collapse paths run.
Fixture HashedFixture() {
  Fixture f;
  f.name = "hashed";
  f.make = [] {
    auto p = std::make_unique<Pipeline>();
    InputParser::Options parser;
    parser.feature_dim = 64;
    Add(p.get(), std::make_unique<InputParser>(parser));
    FeatureHasher::Options hasher;
    hasher.bits = 3;
    Add(p.get(), std::make_unique<FeatureHasher>(hasher));
    return p;
  };
  f.record = SparseRecord;
  return f;
}

/// libsvm -> imputer -> scaler -> 8-bucket hasher.
Fixture SparseFixture() {
  Fixture f;
  f.name = "sparse";
  f.make = [] {
    auto p = std::make_unique<Pipeline>();
    InputParser::Options parser;
    parser.feature_dim = 64;
    Add(p.get(), std::make_unique<InputParser>(parser));
    MissingValueImputer::Options imputer;
    imputer.default_value = -2.5;
    Add(p.get(), std::make_unique<MissingValueImputer>(imputer));
    Add(p.get(), std::make_unique<StandardScaler>());
    FeatureHasher::Options hasher;
    hasher.bits = 3;
    Add(p.get(), std::make_unique<FeatureHasher>(hasher));
    return p;
  };
  f.record = SparseRecord;
  return f;
}

/// The URL deployment pipeline.
Fixture UrlFixture() {
  Fixture f = SparseFixture();
  f.name = "url";
  f.make = [] {
    UrlPipelineConfig config;
    config.raw_dim = 64;
    config.hash_bits = 4;
    return MakeUrlPipeline(config);
  };
  return f;
}

/// The Taxi deployment pipeline on generated trips with blanked cells.
Fixture TaxiFixture() {
  Fixture f;
  f.name = "taxi";
  f.make = [] { return MakeTaxiPipeline(); };
  f.record = [](Rng* rng) {
    static TaxiStreamGenerator generator([] {
      TaxiStreamGenerator::Config config;
      config.records_per_chunk = 64;
      config.anomaly_prob = 0.2;
      config.seed = 5;
      return config;
    }());
    static std::vector<std::string> pool = generator.NextChunk().records;
    if (rng->NextBernoulli(0.05)) return Garbage(rng);
    std::vector<std::string_view> fields =
        SplitString(pool[rng->NextBounded(pool.size())], ',');
    std::string line;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) line += ',';
      if (!rng->NextBernoulli(0.04)) line += std::string(fields[i]);
    }
    return line;
  };
  return f;
}

/// csv -> imputer (double + int column) -> z-score -> projector ->
/// one-hot with a 3-slot dictionary over 6 colors (unseen categories hash).
Fixture CategoricalFixture() {
  Fixture f;
  f.name = "categorical";
  f.make = [] {
    auto p = std::make_unique<Pipeline>();
    Add(p.get(), std::make_unique<InputParser>(
                     Csv(MakeSchema({Field{"when", ValueType::kTimestamp},
                                     Field{"x", ValueType::kDouble},
                                     Field{"n", ValueType::kInt64},
                                     Field{"color", ValueType::kString},
                                     Field{"label", ValueType::kDouble}}))));
    MissingValueImputer::Options imputer;
    imputer.columns = {"x", "n"};
    Add(p.get(), std::make_unique<MissingValueImputer>(imputer));
    ZScoreAnomalyDetector::Options zscore;
    zscore.columns = {"x", "n"};
    zscore.threshold = 1.5;
    zscore.min_observations = 5;
    Add(p.get(), std::make_unique<ZScoreAnomalyDetector>(zscore));
    Add(p.get(), std::make_unique<ColumnProjector>(
                     std::vector<std::string>{"label", "color", "n", "x"}));
    OneHotEncoder::Options encoder;
    encoder.numeric_columns = {"x", "n"};
    encoder.categorical_columns = {{"color", 3}};
    encoder.label_column = "label";
    Add(p.get(), std::make_unique<OneHotEncoder>(encoder));
    return p;
  };
  f.record = [](Rng* rng) {
    static const char* kColors[] = {"red", "green", "blue",
                                    "amber", "teal", ""};
    if (rng->NextBernoulli(0.05)) return Garbage(rng);
    const std::string x =
        rng->NextBernoulli(0.1) ? "" : Number(rng, /*nan=*/false);
    const std::string n =
        rng->NextBernoulli(0.1)
            ? ""
            : StrFormat("%lld", static_cast<long long>(rng->NextInt(-9, 9)));
    return StrFormat("2015-01-01 08:%02d:00,%s,%s,%s,%.3f",
                     static_cast<int>(rng->NextInt(0, 59)), x.c_str(),
                     n.c_str(), kColors[rng->NextBounded(6)],
                     rng->NextGaussian());
  };
  return f;
}

/// csv -> range filter -> table scaler over an int and a double column ->
/// assembler with intercept; column c carries NaN payloads unscaled.
Fixture TableFixture() {
  Fixture f;
  f.name = "table";
  f.make = [] {
    auto p = std::make_unique<Pipeline>();
    Add(p.get(), std::make_unique<InputParser>(
                     Csv(MakeSchema({Field{"a", ValueType::kInt64},
                                     Field{"b", ValueType::kDouble},
                                     Field{"c", ValueType::kDouble},
                                     Field{"y", ValueType::kDouble}}))));
    std::vector<AnomalyFilter::Rule> rules;
    rules.push_back(AnomalyFilter::Rule{"a", -5.0, 5.0, false, true});
    Add(p.get(), std::make_unique<AnomalyFilter>("a", std::move(rules)));
    StandardScaler::Options scaler;
    scaler.columns = {"a", "b"};
    Add(p.get(), std::make_unique<StandardScaler>(scaler));
    VectorAssembler::Options assembler;
    assembler.feature_columns = {"c", "b", "a"};
    assembler.label_column = "y";
    assembler.add_intercept = true;
    Add(p.get(), std::make_unique<VectorAssembler>(assembler));
    return p;
  };
  f.record = [](Rng* rng) {
    if (rng->NextBernoulli(0.05)) return Garbage(rng);
    const std::string a =
        rng->NextBernoulli(0.1)
            ? ""
            : StrFormat("%lld", static_cast<long long>(rng->NextInt(-7, 7)));
    const std::string b =
        rng->NextBernoulli(0.1) ? "" : Number(rng, /*nan=*/false);
    const std::string c = Number(rng, /*nan=*/true);
    return StrFormat("%s,%s,%s,%.3f", a.c_str(), b.c_str(), c.c_str(),
                     rng->NextGaussian());
  };
  return f;
}

void ExpectCountersEqual(const Pipeline& pipeline, const SpecPipeline& spec,
                         const std::string& context) {
  for (size_t i = 0; i < pipeline.num_components(); ++i) {
    EXPECT_EQ(CounterOf(pipeline.component(i)), spec.stage(i).dropped)
        << context << " component " << pipeline.component(i).name();
  }
}

class SpecDifferentialTest : public ::testing::TestWithParam<Fixture> {};

TEST_P(SpecDifferentialTest, PlanMatchesSpecOnRandomChunks) {
  const Fixture& fixture = GetParam();
  // Row counts include empty and single-row chunks and chunks larger than
  // any a stream delivers.
  const size_t kRows[] = {0, 1, 37, 300, 700, 1100, 64, 513};
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    std::unique_ptr<Pipeline> pipeline = fixture.make();
    SpecPipeline spec = std::move(SpecPipeline::Of(*pipeline)).ValueOrDie();
    for (size_t i = 0; i < sizeof(kRows) / sizeof(kRows[0]); ++i) {
      RawChunk chunk;
      chunk.id = static_cast<ChunkId>(i);
      for (size_t r = 0; r < kRows[i]; ++r) {
        chunk.records.push_back(fixture.record(&rng));
      }
      const std::string at = fixture.name + " seed " + std::to_string(seed) +
                             " chunk " + std::to_string(i);

      size_t plan_scans = 0;
      size_t spec_scans = 0;
      FeatureData online =
          std::move(pipeline->UpdateAndTransform(chunk, &plan_scans))
              .ValueOrDie();
      EXPECT_TRUE(testing::FeatureDataBitEqual(
          std::move(spec.UpdateAndTransform(chunk, &spec_scans)).ValueOrDie(),
          online, at + " online"));
      EXPECT_EQ(plan_scans, spec_scans) << at << " online";
      ExpectCountersEqual(*pipeline, spec, at + " online");

      plan_scans = 0;
      spec_scans = 0;
      FeatureData pure =
          std::move(pipeline->Transform(chunk, &plan_scans)).ValueOrDie();
      EXPECT_TRUE(testing::FeatureDataBitEqual(
          std::move(spec.Transform(chunk, &spec_scans)).ValueOrDie(), pure,
          at + " pure"));
      EXPECT_EQ(plan_scans, spec_scans) << at << " pure";
      ExpectCountersEqual(*pipeline, spec, at + " pure");

      plan_scans = 0;
      spec_scans = 0;
      FeatureData recomputed =
          std::move(pipeline->TransformRecomputingStatistics(chunk,
                                                             &plan_scans))
              .ValueOrDie();
      EXPECT_TRUE(testing::FeatureDataBitEqual(
          std::move(spec.TransformRecomputingStatistics(chunk, &spec_scans))
              .ValueOrDie(),
          recomputed, at + " recompute"));
      EXPECT_EQ(plan_scans, spec_scans) << at << " recompute";
      ExpectCountersEqual(*pipeline, spec, at + " recompute");
    }
    // One compiled plan served every path of every chunk.
    EXPECT_EQ(pipeline->plan_compiles(), 1u) << fixture.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, SpecDifferentialTest,
    ::testing::Values(HashedFixture(), SparseFixture(), UrlFixture(),
                      TaxiFixture(), CategoricalFixture(), TableFixture()),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace spec
}  // namespace cdpipe

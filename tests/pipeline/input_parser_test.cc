#include "src/pipeline/input_parser.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/pipeline/one_hot_encoder.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

std::shared_ptr<const Schema> TestCsvSchema() {
  return std::move(Schema::Make({Field{"t", ValueType::kTimestamp},
                                 Field{"x", ValueType::kDouble},
                                 Field{"n", ValueType::kInt64},
                                 Field{"s", ValueType::kString}}))
      .ValueOrDie();
}

InputParser::Options CsvOptions() {
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema = TestCsvSchema();
  return options;
}

/// A CSV parser followed by an assembler over the numeric columns t, x, n
/// (label n), so feature i of each parsed row is column i.
KernelHarness CsvHarness(InputParser::Options options = CsvOptions()) {
  return KernelHarness(std::move(options), nullptr, {"t", "x", "n"}, "n");
}

TEST(InputParserLibSvmTest, ParsesLabelsAndFeatures) {
  InputParser::Options options;
  options.format = InputParser::Format::kLibSvm;
  options.feature_dim = 100;
  KernelHarness harness(options, nullptr);

  auto result = harness.Transform({"+1 3:1.5 17:2.0", "-1 5:0.25"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& features = (*result);
  ASSERT_EQ(features.num_rows(), 2u);
  EXPECT_EQ(features.dim, 100u);
  EXPECT_DOUBLE_EQ(features.labels[0], 1.0);
  EXPECT_DOUBLE_EQ(features.labels[1], -1.0);
  EXPECT_DOUBLE_EQ(features.features[0].Get(3), 1.5);
  EXPECT_DOUBLE_EQ(features.features[0].Get(17), 2.0);
  EXPECT_DOUBLE_EQ(features.features[1].Get(5), 0.25);
}

TEST(InputParserLibSvmTest, BinarizesLabels) {
  InputParser::Options options;
  options.feature_dim = 10;
  options.binarize_labels = true;
  KernelHarness harness(options, nullptr);
  auto result = harness.Transform({"0 1:1", "3 1:1", "-2 1:1"});
  ASSERT_TRUE(result.ok());
  const auto& features = (*result);
  EXPECT_DOUBLE_EQ(features.labels[0], -1.0);
  EXPECT_DOUBLE_EQ(features.labels[1], 1.0);
  EXPECT_DOUBLE_EQ(features.labels[2], -1.0);
}

TEST(InputParserLibSvmTest, KeepsRawLabelWhenNotBinarizing) {
  InputParser::Options options;
  options.feature_dim = 10;
  options.binarize_labels = false;
  KernelHarness harness(options, nullptr);
  auto result = harness.Transform({"2.75 1:1"});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result).labels[0], 2.75);
}

TEST(InputParserLibSvmTest, ParsesNanAsMissing) {
  InputParser::Options options;
  options.feature_dim = 10;
  KernelHarness harness(options, nullptr);
  auto result = harness.Transform({"+1 2:nan 4:1.0"});
  ASSERT_TRUE(result.ok());
  const auto& features = (*result);
  EXPECT_TRUE(std::isnan(features.features[0].Get(2)));
  EXPECT_DOUBLE_EQ(features.features[0].Get(4), 1.0);
}

TEST(InputParserLibSvmTest, DropsMalformedRecords) {
  InputParser::Options options;
  options.feature_dim = 10;
  KernelHarness harness(options, nullptr);
  auto result = harness.Transform({"+1 1:1.0", "not a record", "+1 999:1.0",
                                "+1 3:abc", "-1 2:2.0"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result).num_rows(), 2u);
  EXPECT_EQ(harness.parser().num_malformed(), 3u);
}

TEST(InputParserLibSvmTest, StrictModeFailsOnMalformed) {
  InputParser::Options options;
  options.feature_dim = 10;
  options.strict = true;
  KernelHarness harness(options, nullptr);
  EXPECT_EQ(harness.Transform({"garbage"}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InputParserLibSvmTest, RejectsNonTableInput) {
  // A parser anywhere but at the raw entry has no records to parse.
  InputParser::Options options;
  options.feature_dim = 10;
  InputParser second(options);
  EXPECT_EQ(KernelHarness(options, &second).Transform({"1 1:1"}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InputParserCsvTest, ParsesTypedColumns) {
  auto result = CsvHarness().Transform({"2015-01-01 00:00:00,1.5,7,hello"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result->features[0].Get(0), 1420070400.0);
  EXPECT_DOUBLE_EQ(result->features[0].Get(1), 1.5);
  EXPECT_DOUBLE_EQ(result->features[0].Get(2), 7.0);
  // The string cell is checked by encoding it.
  OneHotEncoder::Options encoder_options;
  encoder_options.categorical_columns = {{"s", 4}};
  encoder_options.label_column = "x";
  OneHotEncoder encoder(encoder_options);
  ASSERT_TRUE(KernelHarness(CsvOptions(), &encoder)
                  .Update({"2015-01-01 00:00:00,1.5,7,hello"})
                  .ok());
  EXPECT_EQ(encoder.SlotOf(0, "hello"), 0u);
  EXPECT_EQ(encoder.CardinalityOf(0), 1u);
}

TEST(InputParserCsvTest, EmptyFieldBecomesNull) {
  auto result = CsvHarness().Transform({"2015-01-01 00:00:00,,7,x"});
  ASSERT_TRUE(result.ok());
  // The null x cell is absent from the assembled row.
  EXPECT_EQ(result->features[0].indices(), (std::vector<uint32_t>{0, 2}));
}

TEST(InputParserCsvTest, DropsWrongArityAndBadValues) {
  KernelHarness harness = CsvHarness();
  auto result = harness.Transform({
      "2015-01-01 00:00:00,1.0,2,ok",
      "too,few",
      "2015-01-01 00:00:00,abc,2,bad-double",
      "not-a-date,1.0,2,bad-date",
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(harness.parser().num_malformed(), 3u);
}

TEST(InputParserCsvTest, CustomDelimiter) {
  InputParser::Options options;
  options.format = InputParser::Format::kCsv;
  options.csv_schema =
      std::move(Schema::Make({Field{"a", ValueType::kDouble},
                              Field{"b", ValueType::kDouble}}))
          .ValueOrDie();
  options.delimiter = ';';
  auto result = KernelHarness(options, nullptr, {"a"}, "b").Transform(
      {"1.0;2.0"});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->labels[0], 2.0);
}

TEST(InputParserTest, CloneKeepsConfigurationAndCounters) {
  InputParser::Options options;
  options.feature_dim = 10;
  KernelHarness harness(options, nullptr);
  ASSERT_TRUE(harness.Transform({"bad"}).ok());
  EXPECT_EQ(harness.parser().num_malformed(), 1u);
  auto clone = harness.parser().Clone();
  EXPECT_EQ(static_cast<InputParser*>(clone.get())->num_malformed(), 1u);
  EXPECT_EQ(clone->name(), "input_parser");
  EXPECT_FALSE(clone->is_stateful());
}

}  // namespace
}  // namespace cdpipe

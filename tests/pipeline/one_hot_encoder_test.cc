#include "src/pipeline/one_hot_encoder.h"

#include <gtest/gtest.h>

#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

std::shared_ptr<const Schema> EncoderSchema() {
  return std::move(Schema::Make({Field{"amount", ValueType::kDouble},
                                 Field{"color", ValueType::kString},
                                 Field{"label", ValueType::kDouble}}))
      .ValueOrDie();
}

OneHotEncoder::Options BaseOptions(uint32_t max_cardinality = 4) {
  OneHotEncoder::Options options;
  options.numeric_columns = {"amount"};
  options.categorical_columns = {{"color", max_cardinality}};
  options.label_column = "label";
  return options;
}

KernelHarness Harness(OneHotEncoder* encoder) {
  return KernelHarness::Csv(EncoderSchema(), encoder);
}

FeatureData Checked(Result<FeatureData> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(OneHotEncoderTest, OutputDimIsNumericPlusBlocks) {
  OneHotEncoder encoder(BaseOptions(8));
  EXPECT_EQ(encoder.output_dim(), 9u);
}

TEST(OneHotEncoderTest, EncodesKnownCategories) {
  OneHotEncoder encoder(BaseOptions());
  FeatureData out = Checked(Harness(&encoder).Update({"1.5,red,1", "2.0,blue,-1"}));
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.dim, 5u);  // 1 numeric + block of 4
  // Row 0: amount at index 0, "red" (first seen -> slot 0) at index 1.
  EXPECT_DOUBLE_EQ(out.features[0].Get(0), 1.5);
  EXPECT_DOUBLE_EQ(out.features[0].Get(1), 1.0);
  // Row 1: "blue" -> slot 1 -> index 2.
  EXPECT_DOUBLE_EQ(out.features[1].Get(2), 1.0);
  EXPECT_DOUBLE_EQ(out.labels[0], 1.0);
  EXPECT_DOUBLE_EQ(out.labels[1], -1.0);
}

TEST(OneHotEncoderTest, OutputIsSparseOneNonzeroPerCategorical) {
  OneHotEncoder encoder(BaseOptions(1000));
  FeatureData out = Checked(Harness(&encoder).Update({"1.0,a,0"}));
  // 1 numeric + 1 one-hot nonzero despite a 1000-wide block (the O(p)
  // guarantee of §3.2.1).
  EXPECT_EQ(out.features[0].nnz(), 2u);
}

TEST(OneHotEncoderTest, UnknownValueHashesIntoBlock) {
  OneHotEncoder encoder(BaseOptions(4));
  KernelHarness harness = Harness(&encoder);
  Checked(harness.Update({"1.0,red,0"}));
  // "violet" was never folded in; it must still land inside the block.
  FeatureData out = Checked(harness.Transform({"1.0,violet,0"}));
  ASSERT_EQ(out.features[0].nnz(), 2u);
  const uint32_t slot = out.features[0].indices()[1];
  EXPECT_GE(slot, 1u);
  EXPECT_LT(slot, 5u);
}

TEST(OneHotEncoderTest, DictionaryCapacityRespected) {
  OneHotEncoder encoder(BaseOptions(2));
  Checked(Harness(&encoder).Update({"1,a,0", "1,b,0", "1,c,0", "1,d,0"}));
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);  // capped at max_cardinality
}

TEST(OneHotEncoderTest, IncrementalDictionaryGrowsAcrossUpdates) {
  OneHotEncoder encoder(BaseOptions(8));
  KernelHarness harness = Harness(&encoder);
  Checked(harness.Update({"1,a,0"}));
  EXPECT_EQ(encoder.CardinalityOf(0), 1u);
  Checked(harness.Update({"1,b,0"}));
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);
  // Re-seeing "a" does not grow the dictionary.
  Checked(harness.Update({"1,a,0"}));
  EXPECT_EQ(encoder.CardinalityOf(0), 2u);
}

TEST(OneHotEncoderTest, StableIndicesAcrossDictionaryGrowth) {
  OneHotEncoder encoder(BaseOptions(8));
  KernelHarness harness = Harness(&encoder);
  Checked(harness.Update({"1,a,0"}));
  const uint32_t slot_before =
      Checked(harness.Transform({"1,a,0"})).features[0].indices()[1];
  Checked(harness.Update({"1,b,0", "1,c,0"}));
  EXPECT_EQ(Checked(harness.Transform({"1,a,0"})).features[0].indices()[1],
            slot_before);
}

TEST(OneHotEncoderTest, NullCategoricalSkipped) {
  OneHotEncoder encoder(BaseOptions());
  FeatureData out = Checked(Harness(&encoder).Transform({"2.0,,1"}));
  EXPECT_EQ(out.features[0].nnz(), 1u);
}

TEST(OneHotEncoderTest, NonStringCategoricalErrors) {
  OneHotEncoder::Options options;
  options.numeric_columns = {};
  options.categorical_columns = {{"amount", 4}};  // amount is a double column
  options.label_column = "label";
  OneHotEncoder encoder(options);
  KernelHarness harness = Harness(&encoder);
  EXPECT_EQ(harness.Update({"1.0,x,0"}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(harness.Transform({"1.0,x,0"}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(OneHotEncoderTest, ResetAndClone) {
  OneHotEncoder encoder(BaseOptions());
  Checked(Harness(&encoder).Update({"1,a,0"}));
  auto clone = encoder.Clone();
  EXPECT_EQ(static_cast<OneHotEncoder*>(clone.get())->CardinalityOf(0), 1u);
  encoder.Reset();
  EXPECT_EQ(encoder.CardinalityOf(0), 0u);
  EXPECT_EQ(static_cast<OneHotEncoder*>(clone.get())->CardinalityOf(0), 1u);
}

TEST(OneHotEncoderTest, StatefulContract) {
  OneHotEncoder encoder(BaseOptions());
  EXPECT_TRUE(encoder.is_stateful());
  EXPECT_TRUE(encoder.supports_online_statistics());
  EXPECT_EQ(encoder.kind(), ComponentKind::kFeatureExtraction);
}

}  // namespace
}  // namespace cdpipe

#include "src/pipeline/vector_assembler.h"

#include <gtest/gtest.h>

#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

std::shared_ptr<const Schema> ThreeColumnSchema() {
  return std::move(Schema::Make({Field{"a", ValueType::kDouble},
                                 Field{"b", ValueType::kDouble},
                                 Field{"y", ValueType::kDouble}}))
      .ValueOrDie();
}

VectorAssembler::Options BaseOptions(bool intercept = false) {
  VectorAssembler::Options options;
  options.feature_columns = {"a", "b"};
  options.label_column = "y";
  options.add_intercept = intercept;
  return options;
}

Result<FeatureData> Assemble(VectorAssembler* assembler,
                             const std::vector<std::string>& records) {
  return KernelHarness::Csv(ThreeColumnSchema(), assembler).Transform(records);
}

TEST(VectorAssemblerTest, PacksColumnsInOrder) {
  VectorAssembler assembler(BaseOptions());
  auto result = Assemble(&assembler, {"1,2,3"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dim, 2u);
  EXPECT_DOUBLE_EQ(result->features[0].Get(0), 1.0);
  EXPECT_DOUBLE_EQ(result->features[0].Get(1), 2.0);
  EXPECT_DOUBLE_EQ(result->labels[0], 3.0);
}

TEST(VectorAssemblerTest, InterceptAppendsConstantOne) {
  VectorAssembler assembler(BaseOptions(/*intercept=*/true));
  EXPECT_EQ(assembler.output_dim(), 3u);
  auto result = Assemble(&assembler, {"0,0,5"});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->features[0].Get(2), 1.0);
  // zero-valued features are not stored.
  EXPECT_EQ(result->features[0].nnz(), 1u);
}

TEST(VectorAssemblerTest, NullFeatureBecomesZero) {
  VectorAssembler assembler(BaseOptions());
  auto result = Assemble(&assembler, {",2,1"});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->features[0].Get(0), 0.0);
  EXPECT_DOUBLE_EQ(result->features[0].Get(1), 2.0);
}

TEST(VectorAssemblerTest, NullLabelErrors) {
  VectorAssembler assembler(BaseOptions());
  EXPECT_FALSE(Assemble(&assembler, {"1,2,"}).ok());
}

TEST(VectorAssemblerTest, MissingColumnErrors) {
  VectorAssembler::Options options;
  options.feature_columns = {"nope"};
  options.label_column = "y";
  VectorAssembler assembler(options);
  EXPECT_EQ(Assemble(&assembler, {"1,2,3"}).status().code(),
            StatusCode::kNotFound);
}

TEST(VectorAssemblerTest, RejectsFeatureBatch) {
  // Placed after a vectorized stage there is no table to assemble.
  VectorAssembler assembler(BaseOptions());
  EXPECT_EQ(KernelHarness::LibSvm(&assembler, 4)
                .Transform({"1 0:1"})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(VectorAssemblerTest, EmptyTableGivesEmptyFeatures) {
  VectorAssembler assembler(BaseOptions());
  auto result = Assemble(&assembler, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(VectorAssemblerTest, ContractAndClone) {
  VectorAssembler assembler(BaseOptions(true));
  EXPECT_FALSE(assembler.is_stateful());
  EXPECT_EQ(assembler.kind(), ComponentKind::kFeatureSelection);
  auto clone = assembler.Clone();
  EXPECT_EQ(static_cast<VectorAssembler*>(clone.get())->output_dim(), 3u);
}

}  // namespace
}  // namespace cdpipe

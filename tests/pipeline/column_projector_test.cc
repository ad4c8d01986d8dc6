#include "src/pipeline/column_projector.h"

#include <gtest/gtest.h>

#include "src/pipeline/fusion/fusion.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

std::shared_ptr<const Schema> TestSchema() {
  return std::move(Schema::Make({Field{"a", ValueType::kDouble},
                                 Field{"b", ValueType::kString},
                                 Field{"c", ValueType::kInt64}}))
      .ValueOrDie();
}

const std::vector<std::string> kRecords = {"1.0,x,7", "2.0,y,8"};

TEST(ColumnProjectorTest, SelectsAndReorders) {
  ColumnProjector projector({"c", "a"});
  // The projection rewires the plan's logical schema...
  const std::shared_ptr<const Schema> schema = TestSchema();
  fusion::PlanBuilder builder(*schema);
  ASSERT_TRUE(builder.BeginTable(schema).ok());
  ASSERT_TRUE(projector.Fuse(&builder).ok());
  ASSERT_EQ(builder.schema().num_fields(), 2u);
  EXPECT_EQ(builder.schema().field(0).name, "c");
  EXPECT_EQ(builder.schema().field(1).name, "a");
  // ...and the projected columns carry their values downstream.
  auto result =
      KernelHarness::Csv(TestSchema(), &projector, {"c"}, "a").Transform(
          kRecords);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->features[0].Get(0), 7.0);
  EXPECT_DOUBLE_EQ(result->labels[1], 2.0);
}

TEST(ColumnProjectorTest, MissingColumnErrors) {
  ColumnProjector projector({"nope"});
  EXPECT_EQ(KernelHarness::Csv(TestSchema(), &projector, {"a"}, "a")
                .Transform(kRecords)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ColumnProjectorTest, RejectsFeatureBatch) {
  ColumnProjector projector({"a"});
  EXPECT_EQ(
      KernelHarness::LibSvm(&projector, 4).Transform({"1 0:1"}).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(ColumnProjectorTest, PreservesRowCount) {
  ColumnProjector projector({"a", "b"});
  auto result =
      KernelHarness::Csv(TestSchema(), &projector, {"a"}, "a").Transform(
          kRecords);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(ColumnProjectorTest, ContractAndClone) {
  ColumnProjector projector({"a"});
  EXPECT_FALSE(projector.is_stateful());
  EXPECT_EQ(projector.kind(), ComponentKind::kFeatureSelection);
  auto clone = projector.Clone();
  // The clone projects away everything but "a".
  EXPECT_EQ(KernelHarness::Csv(TestSchema(), clone.get(), {"c"}, "a")
                .Transform(kRecords)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(KernelHarness::Csv(TestSchema(), clone.get(), {"a"}, "a")
                  .Transform(kRecords)
                  .ok());
}

}  // namespace
}  // namespace cdpipe

#include "src/pipeline/anomaly_filter.h"

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "src/pipeline/feature_hasher.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

std::shared_ptr<const Schema> VLabelSchema() {
  return std::move(Schema::Make({Field{"v", ValueType::kDouble},
                                 Field{"label", ValueType::kDouble}}))
      .ValueOrDie();
}

std::vector<std::string> Records(const std::vector<double>& values) {
  std::vector<std::string> out;
  for (double v : values) out.push_back(StrFormat("%.17g,0", v));
  return out;
}

KernelHarness Harness(AnomalyFilter* filter) {
  return KernelHarness::Csv(VLabelSchema(), filter, {"v"});
}

// Keeps rows whose `column` lies within [min, max], bounds inclusive.
std::unique_ptr<AnomalyFilter> KeepInRange(const std::string& column,
                                           double min, double max) {
  return std::make_unique<AnomalyFilter>(
      "range", std::vector<AnomalyFilter::Rule>{{column, min, max}});
}

TEST(AnomalyFilterTest, KeepInRangeFilters) {
  auto filter = KeepInRange("v", 0.0, 10.0);
  auto result = Harness(filter.get()).Transform(Records({-1, 0, 5, 10, 11}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_DOUBLE_EQ(result->features[0].Get(0), 0.0);
  EXPECT_DOUBLE_EQ(result->features[2].Get(0), 10.0);
  EXPECT_EQ(filter->num_dropped(), 2u);
}

TEST(AnomalyFilterTest, NullCellsDroppedByRangeFilter) {
  auto filter = KeepInRange("v", 0.0, 10.0);
  auto result = Harness(filter.get()).Transform({"5,0", ",0"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);
}

TEST(AnomalyFilterTest, MissingColumnErrors) {
  auto filter = KeepInRange("zzz", 0.0, 1.0);
  EXPECT_FALSE(Harness(filter.get()).Transform(Records({1})).ok());
}

TEST(AnomalyFilterTest, RejectsFeatureBatch) {
  // Placed after a vectorized stage there is no table to filter.
  auto filter = KeepInRange("v", 0.0, 1.0);
  KernelHarness harness = KernelHarness::LibSvm(filter.get(), 8);
  const Status status = harness.Transform({"1 0:1"}).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(AnomalyFilterTest, EmptyTablePassesThrough) {
  auto filter = KeepInRange("v", 0.0, 1.0);
  auto result = Harness(filter.get()).Transform({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(AnomalyFilterTest, CloneCarriesPredicateAndCounter) {
  auto filter = KeepInRange("v", 0.0, 1.0);
  ASSERT_TRUE(Harness(filter.get()).Transform(Records({5})).ok());
  auto clone = filter->Clone();
  auto* cloned = static_cast<AnomalyFilter*>(clone.get());
  EXPECT_EQ(cloned->num_dropped(), 1u);
  EXPECT_EQ(cloned->name(), filter->name());
  auto result = Harness(cloned).Transform(Records({0.5, 7}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(cloned->num_dropped(), 2u);
  EXPECT_EQ(filter->num_dropped(), 1u);
}

TEST(AnomalyFilterTest, StatelessContract) {
  auto filter = KeepInRange("v", 0.0, 1.0);
  EXPECT_FALSE(filter->is_stateful());
}

}  // namespace
}  // namespace cdpipe

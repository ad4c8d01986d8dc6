#include "src/pipeline/missing_value_imputer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

FeatureData Checked(Result<FeatureData> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(ImputerFeatureModeTest, ReplacesNanWithRunningMean) {
  MissingValueImputer imputer;
  KernelHarness harness = KernelHarness::LibSvm(&imputer, 8);
  Checked(harness.Update({"1 0:2.0", "1 0:4.0"}));
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 3.0);

  FeatureData out = Checked(harness.Transform({"1 0:nan 1:5.0"}));
  EXPECT_DOUBLE_EQ(out.features[0].Get(0), 3.0);
  EXPECT_DOUBLE_EQ(out.features[0].Get(1), 5.0);
}

TEST(ImputerFeatureModeTest, UnseenDimensionUsesDefault) {
  MissingValueImputer::Options options;
  options.default_value = -9.0;
  MissingValueImputer imputer(options);
  KernelHarness harness = KernelHarness::LibSvm(&imputer, 8);
  FeatureData out = Checked(harness.Transform({"1 2:nan"}));
  EXPECT_DOUBLE_EQ(out.features[0].Get(2), -9.0);
}

TEST(ImputerFeatureModeTest, UpdateSkipsNan) {
  MissingValueImputer imputer;
  KernelHarness harness = KernelHarness::LibSvm(&imputer, 8);
  Checked(harness.Update({"1 0:nan", "1 0:6.0"}));
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 6.0);  // nan not counted
}

TEST(ImputerFeatureModeTest, IncrementalMeanMatchesBatchMean) {
  MissingValueImputer incremental;
  MissingValueImputer batch;
  KernelHarness inc = KernelHarness::LibSvm(&incremental, 8);
  KernelHarness all = KernelHarness::LibSvm(&batch, 8);
  Checked(inc.Update({"1 0:1.0", "1 0:2.0"}));
  Checked(inc.Update({"1 0:6.0"}));
  Checked(all.Update({"1 0:1.0", "1 0:2.0", "1 0:6.0"}));
  EXPECT_DOUBLE_EQ(incremental.MeanForDimension(0),
                   batch.MeanForDimension(0));
}

std::shared_ptr<const Schema> XyLabelSchema() {
  return std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                 Field{"y", ValueType::kDouble},
                                 Field{"label", ValueType::kDouble}}))
      .ValueOrDie();
}

TEST(ImputerTableModeTest, FillsNullCells) {
  MissingValueImputer::Options options;
  options.columns = {"x"};
  MissingValueImputer imputer(options);
  KernelHarness harness =
      KernelHarness::Csv(XyLabelSchema(), &imputer, {"x", "y"});
  Checked(harness.Update({"2.0,1.0,0", "6.0,,0"}));

  FeatureData out = Checked(harness.Transform({"2.0,1.0,0", ",,0"}));
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.features[1].Get(0), 4.0);  // imputed mean
  // y is not configured: the null cell stays null (absent feature).
  EXPECT_EQ(out.features[1].nnz(), 1u);
}

TEST(ImputerTableModeTest, MissingColumnErrors) {
  MissingValueImputer::Options options;
  options.columns = {"zzz"};
  MissingValueImputer imputer(options);
  KernelHarness harness = KernelHarness::Csv(XyLabelSchema(), &imputer, {"x"});
  EXPECT_FALSE(harness.Update({"1.0,1.0,0"}).ok());
}

TEST(ImputerTest, ResetClearsStatistics) {
  MissingValueImputer imputer;
  KernelHarness harness = KernelHarness::LibSvm(&imputer, 8);
  Checked(harness.Update({"1 0:10.0"}));
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 10.0);
  imputer.Reset();
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(0), 0.0);
}

TEST(ImputerTest, CloneCopiesStatistics) {
  MissingValueImputer imputer;
  Checked(KernelHarness::LibSvm(&imputer, 8).Update({"1 3:8.0"}));
  auto clone = imputer.Clone();
  auto* cloned = static_cast<MissingValueImputer*>(clone.get());
  EXPECT_DOUBLE_EQ(cloned->MeanForDimension(3), 8.0);
  // Statistics are independent after cloning.
  Checked(KernelHarness::LibSvm(cloned, 8).Update({"1 3:0.0"}));
  EXPECT_DOUBLE_EQ(imputer.MeanForDimension(3), 8.0);
  EXPECT_DOUBLE_EQ(cloned->MeanForDimension(3), 4.0);
}

TEST(ImputerTest, IsStatefulAndSupportsOnlineStatistics) {
  MissingValueImputer imputer;
  EXPECT_TRUE(imputer.is_stateful());
  EXPECT_TRUE(imputer.supports_online_statistics());
  EXPECT_EQ(imputer.kind(), ComponentKind::kDataTransformation);
}

}  // namespace
}  // namespace cdpipe

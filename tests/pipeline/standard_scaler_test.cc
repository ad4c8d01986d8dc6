#include "src/pipeline/standard_scaler.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

FeatureData Checked(Result<FeatureData> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(ScalerFeatureModeTest, ComputesMomentsWithImplicitZeros) {
  StandardScaler scaler;
  // Dimension 0 values over 4 rows: 2, 0, 0, 2 -> mean 1, var 1.
  Checked(KernelHarness::LibSvm(&scaler, 4).Update({"0 0:2.0", "0", "0",
                                                "0 0:2.0"}));
  EXPECT_EQ(scaler.ObservationCount(), 4);
  EXPECT_DOUBLE_EQ(scaler.MeanOf(0), 1.0);
  EXPECT_DOUBLE_EQ(scaler.StdDevOf(0), 1.0);
}

TEST(ScalerFeatureModeTest, ScalesByStdDevWithoutCentering) {
  StandardScaler scaler;
  KernelHarness harness = KernelHarness::LibSvm(&scaler, 4);
  Checked(harness.Update({"0 0:2.0", "0", "0", "0 0:2.0"}));
  // sd = 1 -> value unchanged; sparsity preserved (zero entries untouched).
  EXPECT_DOUBLE_EQ(Checked(harness.Transform({"0 0:3.0"})).features[0].Get(0),
                   3.0);
}

TEST(ScalerFeatureModeTest, ConstantDimensionPassesThrough) {
  StandardScaler scaler;
  KernelHarness harness = KernelHarness::LibSvm(&scaler, 4);
  Checked(harness.Update({"0 1:5.0", "0 1:5.0"}));
  // Variance over {5,5} is 0 -> no scaling.
  EXPECT_DOUBLE_EQ(Checked(harness.Transform({"0 1:5.0"})).features[0].Get(1),
                   5.0);
}

TEST(ScalerFeatureModeTest, UnseenDimensionUntouched) {
  StandardScaler scaler;
  KernelHarness harness = KernelHarness::LibSvm(&scaler, 4);
  EXPECT_DOUBLE_EQ(Checked(harness.Transform({"0 2:7.0"})).features[0].Get(2),
                   7.0);
}

TEST(ScalerFeatureModeTest, IncrementalEqualsBatch) {
  Rng rng(99);
  std::vector<std::string> all_rows;
  for (int i = 0; i < 50; ++i) {
    all_rows.push_back(StrFormat("0 0:%.17g 2:%.17g", rng.NextGaussian(3.0, 2.0),
                                 rng.NextGaussian(-1.0, 0.5)));
  }
  StandardScaler incremental;
  StandardScaler batch;
  KernelHarness inc = KernelHarness::LibSvm(&incremental, 4);
  // Feed in three uneven parts vs all at once.
  auto part = [&](size_t lo, size_t hi) {
    return std::vector<std::string>(all_rows.begin() + lo,
                                    all_rows.begin() + hi);
  };
  Checked(inc.Update(part(0, 10)));
  Checked(inc.Update(part(10, 11)));
  Checked(inc.Update(part(11, 50)));
  Checked(KernelHarness::LibSvm(&batch, 4).Update(part(0, 50)));
  EXPECT_NEAR(incremental.MeanOf(0), batch.MeanOf(0), 1e-12);
  EXPECT_NEAR(incremental.StdDevOf(0), batch.StdDevOf(0), 1e-12);
  EXPECT_NEAR(incremental.MeanOf(2), batch.MeanOf(2), 1e-12);
  EXPECT_NEAR(incremental.StdDevOf(2), batch.StdDevOf(2), 1e-12);
}

std::shared_ptr<const Schema> XyLabelSchema() {
  return std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                 Field{"y", ValueType::kDouble},
                                 Field{"label", ValueType::kDouble}}))
      .ValueOrDie();
}

TEST(ScalerTableModeTest, CentersAndScalesColumns) {
  StandardScaler::Options options;
  options.columns = {"x"};
  StandardScaler scaler(options);
  KernelHarness harness =
      KernelHarness::Csv(XyLabelSchema(), &scaler, {"x", "y"});
  // x: {1, 3} -> mean 2, sd 1.
  Checked(harness.Update({"1,0,0", "3,0,0"}));
  FeatureData out = Checked(harness.Transform({"4,9,0"}));
  EXPECT_DOUBLE_EQ(out.features[0].Get(0), 2.0);  // (4-2)/1
  EXPECT_DOUBLE_EQ(out.features[0].Get(1), 9.0);  // untouched
}

TEST(ScalerTableModeTest, NullCellsSkipped) {
  StandardScaler::Options options;
  options.columns = {"x"};
  StandardScaler scaler(options);
  KernelHarness harness = KernelHarness::Csv(XyLabelSchema(), &scaler, {"x"});
  FeatureData out = Checked(harness.Update({"2,0,0", ",0,0", "4,0,0"}));
  // Stats over {2, 4}: mean 3, sd 1.
  EXPECT_DOUBLE_EQ(scaler.MeanOf(0), 3.0);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.features[1].nnz(), 0u);  // the null cell stayed null
}

TEST(ScalerTest, ResetClears) {
  StandardScaler scaler;
  Checked(KernelHarness::LibSvm(&scaler, 4).Update({"0 0:2.0"}));
  scaler.Reset();
  EXPECT_EQ(scaler.ObservationCount(), 0);
  EXPECT_DOUBLE_EQ(scaler.MeanOf(0), 0.0);
}

TEST(ScalerTest, CloneIsIndependent) {
  StandardScaler scaler;
  Checked(KernelHarness::LibSvm(&scaler, 4).Update({"0 0:2.0", "0 0:4.0"}));
  auto clone = scaler.Clone();
  auto* cloned = static_cast<StandardScaler*>(clone.get());
  EXPECT_DOUBLE_EQ(cloned->MeanOf(0), scaler.MeanOf(0));
  Checked(KernelHarness::LibSvm(cloned, 4).Update({"0 0:100.0"}));
  EXPECT_NE(cloned->MeanOf(0), scaler.MeanOf(0));
}

TEST(ScalerTest, ContractFlags) {
  StandardScaler scaler;
  EXPECT_TRUE(scaler.is_stateful());
}

}  // namespace
}  // namespace cdpipe

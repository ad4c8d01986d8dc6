#include "src/pipeline/zscore_anomaly_detector.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/io/serialization.h"
#include "tests/testing/kernel_test_util.h"

namespace cdpipe {
namespace {

using testing::KernelHarness;

std::shared_ptr<const Schema> XLabelSchema() {
  return std::move(Schema::Make({Field{"x", ValueType::kDouble},
                                 Field{"label", ValueType::kDouble}}))
      .ValueOrDie();
}

std::vector<std::string> Records(const std::vector<double>& values) {
  std::vector<std::string> out;
  for (double v : values) out.push_back(StrFormat("%.17g,0", v));
  return out;
}

ZScoreAnomalyDetector::Options BaseOptions(double threshold = 3.0,
                                           int64_t min_observations = 10) {
  ZScoreAnomalyDetector::Options options;
  options.columns = {"x"};
  options.threshold = threshold;
  options.min_observations = min_observations;
  return options;
}

std::vector<std::string> Gaussian(Rng* rng, size_t n, double mean,
                                  double sd) {
  std::vector<double> values;
  for (size_t i = 0; i < n; ++i) values.push_back(rng->NextGaussian(mean, sd));
  return Records(values);
}

KernelHarness Harness(ZScoreAnomalyDetector* detector) {
  return KernelHarness::Csv(XLabelSchema(), detector, {"x"});
}

/// Rows surviving the detector's transform kernel.
size_t Kept(KernelHarness* harness, const std::vector<std::string>& records) {
  auto result = harness->Transform(records);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->num_rows() : 0;
}

TEST(ZScoreDetectorTest, LearnsMomentsIncrementally) {
  Rng rng(1);
  ZScoreAnomalyDetector detector(BaseOptions());
  KernelHarness harness = Harness(&detector);
  ASSERT_TRUE(harness.Update(Gaussian(&rng, 500, 10.0, 2.0)).ok());
  ASSERT_TRUE(harness.Update(Gaussian(&rng, 500, 10.0, 2.0)).ok());
  EXPECT_EQ(detector.CountOf(0), 1000);
  EXPECT_NEAR(detector.MeanOf(0), 10.0, 0.3);
  EXPECT_NEAR(detector.StdDevOf(0), 2.0, 0.3);
}

TEST(ZScoreDetectorTest, DropsOutliersKeepsInliers) {
  Rng rng(2);
  ZScoreAnomalyDetector detector(BaseOptions(/*threshold=*/3.0));
  KernelHarness harness = Harness(&detector);
  ASSERT_TRUE(harness.Update(Gaussian(&rng, 1000, 0.0, 1.0)).ok());
  const size_t dropped_before = detector.num_dropped();
  EXPECT_EQ(Kept(&harness, Records({0.0, 1.5, -2.0, 50.0, -40.0, 0.5})),
            4u);  // 50 and -40 dropped
  EXPECT_EQ(detector.num_dropped() - dropped_before, 2u);
}

TEST(ZScoreDetectorTest, ColdDetectorDropsNothing) {
  ZScoreAnomalyDetector detector(BaseOptions(3.0, /*min_observations=*/100));
  KernelHarness harness = Harness(&detector);
  ASSERT_TRUE(harness.Update(Records({1, 2, 3})).ok());
  // Only 3 observations < 100: even a wild value passes.
  EXPECT_EQ(Kept(&harness, Records({1e9})), 1u);
}

TEST(ZScoreDetectorTest, ConstantColumnDropsNothing) {
  ZScoreAnomalyDetector detector(BaseOptions(3.0, 5));
  KernelHarness harness = Harness(&detector);
  ASSERT_TRUE(harness.Update(Records({7, 7, 7, 7, 7, 7, 7, 7})).ok());
  EXPECT_EQ(Kept(&harness, Records({7, 7})), 2u);
}

TEST(ZScoreDetectorTest, NullCellsNeverVote) {
  Rng rng(3);
  ZScoreAnomalyDetector detector(BaseOptions(3.0, 10));
  KernelHarness harness = Harness(&detector);
  ASSERT_TRUE(harness.Update(Gaussian(&rng, 100, 0.0, 1.0)).ok());
  EXPECT_EQ(Kept(&harness, {",0"}), 1u);
}

TEST(ZScoreDetectorTest, FalsePositiveRateBounded) {
  // Property: on clean Gaussian data with threshold 4σ, the drop rate must
  // be tiny (P(|z| > 4) ≈ 6e-5).
  Rng rng(4);
  ZScoreAnomalyDetector detector(BaseOptions(/*threshold=*/4.0, 100));
  KernelHarness harness = Harness(&detector);
  ASSERT_TRUE(harness.Update(Gaussian(&rng, 2000, 5.0, 3.0)).ok());
  EXPECT_GE(Kept(&harness, Gaussian(&rng, 5000, 5.0, 3.0)), 4990u);
}

TEST(ZScoreDetectorTest, CatchesInjectedAnomalies) {
  // Property: with a 10σ contamination, essentially every anomaly is
  // removed while inliers survive.
  Rng rng(5);
  ZScoreAnomalyDetector detector(BaseOptions(4.0, 100));
  KernelHarness harness = Harness(&detector);
  ASSERT_TRUE(harness.Update(Gaussian(&rng, 2000, 0.0, 1.0)).ok());
  std::vector<std::string> mixed = Gaussian(&rng, 100, 0.0, 1.0);
  for (int i = 0; i < 20; ++i) {
    mixed.push_back(rng.NextBernoulli(0.5) ? "15,0" : "-15,0");
  }
  const size_t kept = Kept(&harness, mixed);
  EXPECT_GE(kept, 98u);   // inliers survive
  EXPECT_LE(kept, 102u);  // anomalies removed
}

TEST(ZScoreDetectorTest, RejectsNonNumericColumn) {
  ZScoreAnomalyDetector detector(BaseOptions());
  auto schema = std::move(Schema::Make({Field{"x", ValueType::kString},
                                        Field{"label", ValueType::kDouble}}))
                    .ValueOrDie();
  EXPECT_EQ(KernelHarness::Csv(schema, &detector, {"label"})
                .Update({"abc,0"})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ZScoreDetectorTest, CheckpointRoundTrip) {
  Rng rng(6);
  ZScoreAnomalyDetector detector(BaseOptions(3.0, 10));
  ASSERT_TRUE(Harness(&detector).Update(Gaussian(&rng, 200, 2.0, 0.5)).ok());
  std::ostringstream os;
  Serializer out(&os);
  ASSERT_TRUE(detector.SaveState(&out).ok());

  ZScoreAnomalyDetector restored(BaseOptions(3.0, 10));
  std::istringstream is(os.str());
  Deserializer in(&is);
  ASSERT_TRUE(restored.LoadState(&in).ok());
  EXPECT_EQ(restored.CountOf(0), detector.CountOf(0));
  EXPECT_DOUBLE_EQ(restored.MeanOf(0), detector.MeanOf(0));
  EXPECT_DOUBLE_EQ(restored.StdDevOf(0), detector.StdDevOf(0));
}

TEST(ZScoreDetectorTest, ResetAndCloneAndContract) {
  Rng rng(7);
  ZScoreAnomalyDetector detector(BaseOptions());
  ASSERT_TRUE(Harness(&detector).Update(Gaussian(&rng, 100, 0.0, 1.0)).ok());
  auto clone = detector.Clone();
  EXPECT_EQ(static_cast<ZScoreAnomalyDetector*>(clone.get())->CountOf(0),
            100);
  detector.Reset();
  EXPECT_EQ(detector.CountOf(0), 0);
  EXPECT_TRUE(detector.is_stateful());
  EXPECT_TRUE(detector.supports_online_statistics());
  EXPECT_EQ(detector.kind(), ComponentKind::kDataTransformation);
}

}  // namespace
}  // namespace cdpipe

#include "src/drift/drift_detector.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace cdpipe {
namespace {

enum class DetectorKind { kPageHinkley, kDdm };

class DetectorKindTest : public ::testing::TestWithParam<DetectorKind> {
 protected:
  std::unique_ptr<DriftDetector> Make() {
    if (GetParam() == DetectorKind::kPageHinkley) {
      PageHinkleyDetector::Options options;
      options.lambda = 15.0;
      options.delta = 0.03;
      return std::make_unique<PageHinkleyDetector>(options);
    }
    return std::make_unique<DdmDetector>();
  }
};

TEST_P(DetectorKindTest, StableOnConstantLowError) {
  auto detector = Make();
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    detector->Observe(rng.NextBernoulli(0.05) ? 1.0 : 0.0);
  }
  EXPECT_EQ(detector->drifts_detected(), 0)
      << "false alarm on a stationary 5% error stream";
}

TEST_P(DetectorKindTest, FiresOnAbruptErrorIncrease) {
  auto detector = Make();
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    detector->Observe(rng.NextBernoulli(0.05) ? 1.0 : 0.0);
  }
  ASSERT_EQ(detector->drifts_detected(), 0);
  // Error jumps from 5% to 60%.
  int steps_to_detect = -1;
  for (int i = 0; i < 500; ++i) {
    if (detector->Observe(rng.NextBernoulli(0.6) ? 1.0 : 0.0) ==
        DriftState::kDrift) {
      steps_to_detect = i;
      break;
    }
  }
  EXPECT_GE(steps_to_detect, 0) << "drift never detected";
  EXPECT_LT(steps_to_detect, 300) << "detection too slow";
  EXPECT_EQ(detector->drifts_detected(), 1);
}

TEST_P(DetectorKindTest, WarningPrecedesOrAccompaniesDrift) {
  auto detector = Make();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    detector->Observe(rng.NextBernoulli(0.05) ? 1.0 : 0.0);
  }
  // A milder shift (5% -> 30%) so the statistic passes through the warning
  // band on its way to the drift threshold.
  bool saw_warning = false;
  for (int i = 0; i < 2000; ++i) {
    const DriftState state =
        detector->Observe(rng.NextBernoulli(0.3) ? 1.0 : 0.0);
    if (state == DriftState::kWarning) saw_warning = true;
    if (state == DriftState::kDrift) break;
  }
  EXPECT_TRUE(saw_warning);
}

TEST_P(DetectorKindTest, ResetRestartsBaselineButKeepsLifetimeCount) {
  auto detector = Make();
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    detector->Observe(rng.NextBernoulli(0.05) ? 1.0 : 0.0);
  }
  for (int i = 0; i < 500; ++i) {
    if (detector->Observe(rng.NextBernoulli(0.6) ? 1.0 : 0.0) ==
        DriftState::kDrift) {
      break;
    }
  }
  ASSERT_EQ(detector->drifts_detected(), 1);
  detector->Reset();
  EXPECT_EQ(detector->state(), DriftState::kStable);
  EXPECT_EQ(detector->observations(), 0);
  EXPECT_EQ(detector->drifts_detected(), 1);  // lifetime counter survives
  // After reset the detector adapts to the new 60% baseline: no refire.
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (detector->Observe(rng.NextBernoulli(0.6) ? 1.0 : 0.0) ==
        DriftState::kDrift) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 0);
}

TEST_P(DetectorKindTest, CloneIsIndependent) {
  auto detector = Make();
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    detector->Observe(rng.NextBernoulli(0.05) ? 1.0 : 0.0);
  }
  auto clone = detector->Clone();
  EXPECT_EQ(clone->observations(), detector->observations());
  clone->Observe(1.0);
  EXPECT_NE(clone->observations(), detector->observations());
}

INSTANTIATE_TEST_SUITE_P(Kinds, DetectorKindTest,
                         ::testing::Values(DetectorKind::kPageHinkley,
                                           DetectorKind::kDdm));

TEST(PageHinkleyTest, StatisticGrowsUnderShift) {
  PageHinkleyDetector detector;
  for (int i = 0; i < 100; ++i) detector.Observe(0.1);
  const double before = detector.Statistic();
  for (int i = 0; i < 50; ++i) detector.Observe(0.9);
  EXPECT_GT(detector.Statistic(), before);
}

TEST(PageHinkleyTest, BurnInSuppressesEarlyAlarms) {
  PageHinkleyDetector::Options options;
  options.lambda = 0.001;  // absurdly sensitive
  options.burn_in = 100;
  PageHinkleyDetector detector(options);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(detector.Observe(rng.NextDouble()), DriftState::kStable);
  }
}

TEST(DdmTest, ErrorRateTracksStream) {
  DdmDetector detector;
  for (int i = 0; i < 60; ++i) detector.Observe(i % 2 == 0 ? 1.0 : 0.0);
  EXPECT_NEAR(detector.ErrorRate(), 0.5, 1e-9);
}

TEST(DdmTest, FractionalSignalsAveraged) {
  // The platform feeds chunk-mean error fractions; DDM averages them.
  DdmDetector detector;
  for (int i = 0; i < 40; ++i) detector.Observe(0.2);
  EXPECT_NEAR(detector.ErrorRate(), 0.2, 1e-9);
  for (int i = 0; i < 10; ++i) detector.Observe(0.7);
  EXPECT_GT(detector.ErrorRate(), 0.2);
}

}  // namespace
}  // namespace cdpipe

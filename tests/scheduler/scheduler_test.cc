#include "src/scheduler/scheduler.h"

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(EwmaTrackerTest, FirstObservationInitializes) {
  EwmaTracker tracker(0.5);
  EXPECT_FALSE(tracker.initialized());
  tracker.Observe(10.0);
  EXPECT_TRUE(tracker.initialized());
  EXPECT_DOUBLE_EQ(tracker.value(), 10.0);
}

TEST(EwmaTrackerTest, ExponentialBlend) {
  EwmaTracker tracker(0.5);
  tracker.Observe(10.0);
  tracker.Observe(20.0);  // 0.5*20 + 0.5*10 = 15
  EXPECT_DOUBLE_EQ(tracker.value(), 15.0);
  EXPECT_EQ(tracker.count(), 2);
}

TEST(EwmaTrackerTest, AlphaControlsRecencyWeight) {
  // A small alpha barely moves toward the new observation; a large alpha
  // almost replaces the old value.
  EwmaTracker slow(0.2);
  slow.Observe(10.0);
  slow.Observe(20.0);  // 0.2*20 + 0.8*10 = 12
  EXPECT_DOUBLE_EQ(slow.value(), 12.0);

  EwmaTracker fast(0.9);
  fast.Observe(10.0);
  fast.Observe(20.0);  // 0.9*20 + 0.1*10 = 19
  EXPECT_DOUBLE_EQ(fast.value(), 19.0);

  // Third observation compounds: 0.2*5 + 0.8*12 = 10.6.
  slow.Observe(5.0);
  EXPECT_DOUBLE_EQ(slow.value(), 10.6);
}

TEST(EwmaTrackerTest, CountIncludesInitializingObservation) {
  EwmaTracker tracker(0.5);
  EXPECT_EQ(tracker.count(), 0);
  tracker.Observe(1.0);
  EXPECT_EQ(tracker.count(), 1);
  tracker.Observe(1.0);
  tracker.Observe(1.0);
  EXPECT_EQ(tracker.count(), 3);
  // Identical observations leave the blended value fixed.
  EXPECT_DOUBLE_EQ(tracker.value(), 1.0);
}

TEST(StaticSchedulerTest, FiresEveryInterval) {
  StaticScheduler scheduler(10.0);
  EXPECT_FALSE(scheduler.ShouldTrain(0.0));  // arms at t=0, due at t=10
  EXPECT_FALSE(scheduler.ShouldTrain(9.9));
  EXPECT_TRUE(scheduler.ShouldTrain(10.0));
  scheduler.OnTrainingCompleted(/*start=*/10.0, /*duration=*/1.0);
  EXPECT_FALSE(scheduler.ShouldTrain(15.0));
  EXPECT_TRUE(scheduler.ShouldTrain(20.0));
}

TEST(DynamicSchedulerTest, Formula6) {
  DynamicScheduler scheduler(DynamicScheduler::Options{.slack = 2.0});
  scheduler.OnPredictionLoad(/*qps=*/100.0, /*latency=*/0.01);
  // T' = S * T * pr * pl = 2 * 5 * 100 * 0.01 = 10.
  EXPECT_NEAR(scheduler.ComputeDelaySeconds(5.0), 10.0, 1e-9);
}

TEST(DynamicSchedulerTest, UsesInitialIntervalBeforeMeasurements) {
  DynamicScheduler scheduler(DynamicScheduler::Options{
      .slack = 1.5, .initial_interval_seconds = 3.0});
  EXPECT_DOUBLE_EQ(scheduler.ComputeDelaySeconds(1.0), 3.0);
}

TEST(DynamicSchedulerTest, MinIntervalGuardsAgainstZeroLoad) {
  DynamicScheduler scheduler(DynamicScheduler::Options{
      .slack = 1.0, .min_interval_seconds = 0.5});
  scheduler.OnPredictionLoad(1e-9, 1e-9);
  EXPECT_DOUBLE_EQ(scheduler.ComputeDelaySeconds(1.0), 0.5);
}

TEST(DynamicSchedulerTest, LargerSlackDelaysMore) {
  DynamicScheduler small(DynamicScheduler::Options{.slack = 1.0});
  DynamicScheduler large(DynamicScheduler::Options{.slack = 3.0});
  small.OnPredictionLoad(50.0, 0.02);
  large.OnPredictionLoad(50.0, 0.02);
  EXPECT_LT(small.ComputeDelaySeconds(2.0), large.ComputeDelaySeconds(2.0));
}

TEST(DynamicSchedulerTest, SchedulingCycle) {
  DynamicScheduler scheduler(DynamicScheduler::Options{
      .slack = 1.0, .initial_interval_seconds = 1.0});
  EXPECT_FALSE(scheduler.ShouldTrain(0.0));
  EXPECT_TRUE(scheduler.ShouldTrain(1.0));
  scheduler.OnPredictionLoad(10.0, 0.1);  // pr*pl = 1
  scheduler.OnTrainingCompleted(/*start=*/1.0, /*duration=*/2.0);
  // Next due at 1 + 2 + 1*2*1 = 5.
  EXPECT_FALSE(scheduler.ShouldTrain(4.9));
  EXPECT_TRUE(scheduler.ShouldTrain(5.0));
}

}  // namespace
}  // namespace cdpipe

#include "src/core/cost_model.h"

#include <thread>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(CostModelTest, StartsEmpty) {
  CostModel cost;
  EXPECT_DOUBLE_EQ(cost.TotalSeconds(), 0.0);
  EXPECT_EQ(cost.TotalWork(), 0);
}

TEST(CostModelTest, AccumulatesPerPhase) {
  CostModel cost;
  cost.AddSeconds(CostPhase::kPreprocessing, 1.0);
  cost.AddSeconds(CostPhase::kPreprocessing, 0.5);
  cost.AddSeconds(CostPhase::kRetraining, 2.0);
  cost.AddWork(CostPhase::kPrediction, 100);
  EXPECT_DOUBLE_EQ(cost.SecondsIn(CostPhase::kPreprocessing), 1.5);
  EXPECT_DOUBLE_EQ(cost.SecondsIn(CostPhase::kRetraining), 2.0);
  EXPECT_DOUBLE_EQ(cost.TotalSeconds(), 3.5);
  EXPECT_EQ(cost.WorkIn(CostPhase::kPrediction), 100);
  EXPECT_EQ(cost.TotalWork(), 100);
}

TEST(CostModelTest, ResetClearsEverything) {
  CostModel cost;
  cost.AddSeconds(CostPhase::kPrediction, 1.0);
  cost.AddWork(CostPhase::kPrediction, 5);
  cost.Reset();
  EXPECT_DOUBLE_EQ(cost.TotalSeconds(), 0.0);
  EXPECT_EQ(cost.TotalWork(), 0);
}

TEST(CostModelTest, ScopedTimerAddsElapsed) {
  CostModel cost;
  {
    CostModel::ScopedTimer timer(&cost, CostPhase::kMaterialization);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  EXPECT_GT(cost.SecondsIn(CostPhase::kMaterialization), 0.010);
  EXPECT_LT(cost.SecondsIn(CostPhase::kMaterialization), 5.0);
}

TEST(CostModelTest, ScopedTimerWithoutModelIsNoOp) {
  // Call sites whose cost model is optional time unconditionally.
  { CostModel::ScopedTimer timer(nullptr, CostPhase::kSpill); }
  SUCCEED();
}

TEST(CostModelTest, NamedScopedTimerIsOnePhaseForSpanAndCost) {
  // One line times both: the span named after the call and the cost
  // phase's seconds, from the same clock reads.
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  CostModel cost;
  {
    CostModel::ScopedTimer timer(&cost, CostPhase::kPreprocessing,
                                 "pipeline.preprocess");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  { CostModel::ScopedTimer untraced(&cost, CostPhase::kPrediction); }
  tracer.Disable();
  EXPECT_GT(cost.SecondsIn(CostPhase::kPreprocessing), 0.004);
  EXPECT_GT(cost.SecondsIn(CostPhase::kPrediction), 0.0);
  EXPECT_EQ(tracer.NumBufferedEvents(), 1u);
  EXPECT_NE(tracer.ToChromeTraceJson().find(
                "\"name\":\"pipeline.preprocess\",\"cat\":\"pipeline\""),
            std::string::npos);
  tracer.Clear();
}

TEST(CostModelTest, ToStringMentionsNonEmptyPhases) {
  CostModel cost;
  cost.AddSeconds(CostPhase::kRetraining, 1.0);
  const std::string s = cost.ToString();
  EXPECT_NE(s.find("retraining"), std::string::npos);
  EXPECT_EQ(s.find("prediction"), std::string::npos);
}

TEST(CostModelTest, PhaseNames) {
  EXPECT_STREQ(CostPhaseName(CostPhase::kPreprocessing), "preprocessing");
  EXPECT_STREQ(CostPhaseName(CostPhase::kOnlineTraining), "online-training");
  EXPECT_STREQ(CostPhaseName(CostPhase::kProactiveTraining),
               "proactive-training");
  EXPECT_STREQ(CostPhaseName(CostPhase::kRetraining), "retraining");
  EXPECT_STREQ(CostPhaseName(CostPhase::kMaterialization), "materialization");
  EXPECT_STREQ(CostPhaseName(CostPhase::kPrediction), "prediction");
}

}  // namespace
}  // namespace cdpipe

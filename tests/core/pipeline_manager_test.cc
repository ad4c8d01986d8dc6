#include "src/core/pipeline_manager.h"

#include <gtest/gtest.h>

#include "src/data/url_stream.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace {

RawChunk MakeChunk(ChunkId id, std::vector<std::string> lines) {
  RawChunk chunk;
  chunk.id = id;
  chunk.event_time_seconds = id * 60;
  chunk.records = std::move(lines);
  return chunk;
}

UrlPipelineConfig SmallConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 6;
  return config;
}

std::unique_ptr<PipelineManager> MakeManager(CostModel* cost,
                                             bool online_statistics = true) {
  UrlPipelineConfig config = SmallConfig();
  return std::make_unique<PipelineManager>(
      MakeUrlPipeline(config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.05}),
      cost, PipelineManager::Options{online_statistics});
}

TEST(PipelineManagerTest, OnlineStepProducesFeatureChunk) {
  CostModel cost;
  auto manager = MakeManager(&cost);
  PrequentialEvaluator eval(std::make_unique<MisclassificationRate>());
  auto features =
      manager->OnlineStep(MakeChunk(3, {"+1 3:1.0", "-1 7:2.0"}), &eval);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(features->origin_id, 3);
  EXPECT_EQ(features->num_rows(), 2u);
  EXPECT_EQ(eval.Count(), 2);
  EXPECT_GT(cost.SecondsIn(CostPhase::kPreprocessing), 0.0);
  EXPECT_GT(cost.WorkIn(CostPhase::kPreprocessing), 0);
  EXPECT_GT(cost.WorkIn(CostPhase::kOnlineTraining), 0);
  EXPECT_GT(cost.WorkIn(CostPhase::kPrediction), 0);
  EXPECT_EQ(manager->optimizer().step_count(), 1);
}

TEST(PipelineManagerTest, RematerializeIsPureAndCosted) {
  CostModel cost;
  auto manager = MakeManager(&cost);
  ASSERT_TRUE(
      manager->OnlineStep(MakeChunk(0, {"+1 3:2.0", "+1 3:6.0"}), nullptr)
          .ok());
  RawChunk probe = MakeChunk(1, {"+1 3:2.0"});
  auto first = manager->Rematerialize(probe);
  ASSERT_TRUE(first.ok());
  auto second = manager->Rematerialize(probe);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->data.features[0] == second->data.features[0]);
  EXPECT_GT(cost.WorkIn(CostPhase::kMaterialization), 0);
}

TEST(PipelineManagerTest, NoOptimizationRematerializationCostsMore) {
  CostModel cost_opt;
  CostModel cost_noopt;
  auto with_opt = MakeManager(&cost_opt, /*online_statistics=*/true);
  auto without_opt = MakeManager(&cost_noopt, /*online_statistics=*/false);
  RawChunk chunk = MakeChunk(0, {"+1 3:2.0", "+1 5:1.0"});
  ASSERT_TRUE(with_opt->Rematerialize(chunk).ok());
  ASSERT_TRUE(without_opt->Rematerialize(chunk).ok());
  EXPECT_GT(cost_noopt.WorkIn(CostPhase::kMaterialization),
            cost_opt.WorkIn(CostPhase::kMaterialization));
}

TEST(PipelineManagerTest, TransformForInference) {
  CostModel cost;
  auto manager = MakeManager(&cost);
  auto features =
      manager->TransformForInference(MakeChunk(0, {"+1 3:1.0"}));
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->num_rows(), 1u);
  EXPECT_GT(cost.WorkIn(CostPhase::kPrediction), 0);
}

TEST(PipelineManagerTest, TrainStepUpdatesModel) {
  CostModel cost;
  auto manager = MakeManager(&cost);
  auto features = manager->TransformForInference(
      MakeChunk(0, {"+1 3:1.0", "-1 7:1.0"}));
  ASSERT_TRUE(features.ok());
  const double weight_norm_before = manager->model().weights().L2Norm();
  ASSERT_TRUE(manager
                  ->TrainStep(BatchView(features->dim,
                                        testing::RowsOf(*features)),
                              CostPhase::kProactiveTraining)
                  .ok());
  EXPECT_NE(manager->model().weights().L2Norm(), weight_norm_before);
  EXPECT_GT(cost.WorkIn(CostPhase::kProactiveTraining), 0);
}

TEST(PipelineManagerTest, RedeploySwapsModelAndOptimizer) {
  CostModel cost;
  auto manager = MakeManager(&cost);
  auto new_model = std::make_unique<LinearModel>(manager->model().options());
  new_model->set_bias(42.0);
  auto new_optimizer = MakeOptimizer(OptimizerOptions{});
  manager->Redeploy(std::move(new_model), std::move(new_optimizer));
  EXPECT_DOUBLE_EQ(manager->model().bias(), 42.0);
  EXPECT_EQ(manager->optimizer().step_count(), 0);
}

}  // namespace
}  // namespace cdpipe

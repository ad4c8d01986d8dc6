// Mutation-after-publish regression suite (the deep-freeze audit): once an
// epoch is published, NOTHING the deployment loop does to the live
// pipeline or model — statistics updates, SGD steps, plan compilations,
// resets, checkpoint restores — may perturb the predictions of that epoch.

#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/io/serialization.h"
#include "src/serving/snapshot_publisher.h"
#include "tests/serving/serving_test_util.h"

namespace cdpipe {
namespace serving {
namespace {

using serving_test::MakeServingFixture;
using serving_test::SerialScores;
using serving_test::ServingFixture;

TEST(FrozenSnapshotTest, LiveStatisticsUpdatesDoNotPerturbPublishedEpoch) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> snapshot = publisher.Acquire();
  const std::vector<double> before =
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe);
  ASSERT_FALSE(before.empty());

  // Hammer the live pipeline: every remaining chunk updates scaler means,
  // one-hot dictionaries, anomaly statistics, and bumps the statistics
  // version.
  for (size_t i = 1; i < fixture.chunks.size(); ++i) {
    ASSERT_TRUE(
        fixture.pipeline->UpdateAndTransform(fixture.chunks[i]).ok());
  }
  EXPECT_EQ(
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe),
      before);
}

TEST(FrozenSnapshotTest, LiveModelUpdatesDoNotPerturbPublishedEpoch) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> snapshot = publisher.Acquire();
  const std::vector<double> before =
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe);

  for (size_t i = 1; i < fixture.chunks.size(); ++i) {
    FeatureData features =
        fixture.pipeline->Transform(fixture.chunks[i]).ValueOrDie();
    ASSERT_TRUE(
        fixture.model->Update(features, fixture.optimizer.get()).ok());
  }
  EXPECT_EQ(
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe),
      before);
}

TEST(FrozenSnapshotTest, LiveResetDoesNotPerturbPublishedEpoch) {
  ServingFixture fixture = MakeServingFixture();
  std::stringstream early_state;
  Serializer out(&early_state);
  ASSERT_TRUE(fixture.pipeline->SaveState(&out).ok());
  for (size_t i = 1; i < fixture.chunks.size(); ++i) {
    ASSERT_TRUE(
        fixture.pipeline->UpdateAndTransform(fixture.chunks[i]).ok());
  }
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> snapshot = publisher.Acquire();
  const std::vector<double> before =
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe);

  // Reset the live statistics to the earlier checkpoint.
  Deserializer in(&early_state);
  ASSERT_TRUE(fixture.pipeline->LoadState(&in).ok());
  EXPECT_EQ(
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe),
      before);
}

TEST(FrozenSnapshotTest, SnapshotOwnsItsPlanCache) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> snapshot = publisher.Acquire();
  // A plan compiled for the snapshot must belong to the snapshot's own
  // pipeline: plans point at the components they were compiled from, so a
  // shared plan would run the live pipeline's components (and statistics)
  // on behalf of the frozen snapshot.  (The scratch pool is shared on
  // purpose: tests/serving/shared_scratch_test.cc.)
  EXPECT_NE(snapshot->pipeline.get(), fixture.pipeline.get());
  const uint64_t live_compiles = fixture.pipeline->plan_compiles();
  // Exercise the snapshot's plan to actually compile it.
  ASSERT_FALSE(
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe)
          .empty());
  EXPECT_EQ(snapshot->pipeline->plan_compiles(), 1u);
  EXPECT_EQ(fixture.pipeline->plan_compiles(), live_compiles);
}

TEST(FrozenSnapshotTest, SharedPipelineEpochsStayIndependentOfLiveModel) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> first = publisher.Acquire();

  // Model-only republish: second epoch shares the first's pipeline clone.
  FeatureData features =
      fixture.pipeline->Transform(fixture.chunks[1]).ValueOrDie();
  ASSERT_TRUE(fixture.model->Update(features, fixture.optimizer.get()).ok());
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> second = publisher.Acquire();
  ASSERT_EQ(first->pipeline.get(), second->pipeline.get());

  const std::vector<double> first_scores =
      SerialScores(*first->pipeline, *first->model, fixture.probe);
  const std::vector<double> second_scores =
      SerialScores(*second->pipeline, *second->model, fixture.probe);
  // Further live training must move neither epoch.
  for (size_t i = 2; i < fixture.chunks.size(); ++i) {
    ASSERT_TRUE(
        fixture.pipeline->UpdateAndTransform(fixture.chunks[i]).ok());
  }
  EXPECT_EQ(SerialScores(*first->pipeline, *first->model, fixture.probe),
            first_scores);
  EXPECT_EQ(SerialScores(*second->pipeline, *second->model, fixture.probe),
            second_scores);
}

}  // namespace
}  // namespace serving
}  // namespace cdpipe

// Unit tests of the RCU-style snapshot exchange: epoch assignment, the
// reader fast path, pipeline-clone reuse across model-only republishes,
// and the stale/torn counters that guard the swap protocol.

#include "src/serving/snapshot_publisher.h"

#include <memory>

#include <gtest/gtest.h>

#include "tests/serving/serving_test_util.h"

namespace cdpipe {
namespace serving {
namespace {

using serving_test::MakeServingFixture;
using serving_test::SerialScores;
using serving_test::ServingFixture;

TEST(SnapshotPublisherTest, EmptyBeforeFirstPublish) {
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.epoch(), 0u);
  EXPECT_EQ(publisher.Acquire(), nullptr);

  SnapshotReader reader(&publisher);
  EXPECT_EQ(reader.Current(), nullptr);
  EXPECT_EQ(reader.cached_epoch(), 0u);
  EXPECT_EQ(reader.stale_reads(), 0u);
  EXPECT_EQ(reader.torn_reads(), 0u);
}

TEST(SnapshotPublisherTest, EpochsAreDenseFromOne) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.PublishFrom(*fixture.pipeline, *fixture.model), 1u);
  EXPECT_EQ(publisher.PublishFrom(*fixture.pipeline, *fixture.model), 2u);
  EXPECT_EQ(publisher.PublishFrom(*fixture.pipeline, *fixture.model), 3u);
  EXPECT_EQ(publisher.epoch(), 3u);

  std::shared_ptr<const ModelSnapshot> snapshot = publisher.Acquire();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch, 3u);
  EXPECT_TRUE(snapshot->Consistent());
  EXPECT_GT(snapshot->published_us, 0);
}

TEST(SnapshotPublisherTest, SnapshotMatchesPublishedState) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  const std::vector<double> expected =
      SerialScores(*fixture.pipeline, *fixture.model, fixture.probe);
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  std::shared_ptr<const ModelSnapshot> snapshot = publisher.Acquire();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(
      SerialScores(*snapshot->pipeline, *snapshot->model, fixture.probe),
      expected);
}

TEST(SnapshotPublisherTest, PipelineCloneSharedWhenStatisticsUnchanged) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> first = publisher.Acquire();

  // Model-only change: the second epoch shares the first's frozen pipeline.
  FeatureData features =
      fixture.pipeline->Transform(fixture.chunks[1]).ValueOrDie();
  ASSERT_TRUE(fixture.model->Update(features, fixture.optimizer.get()).ok());
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> second = publisher.Acquire();
  EXPECT_EQ(second->pipeline.get(), first->pipeline.get());
  EXPECT_NE(second->model.get(), first->model.get());

  // Statistics change: the third epoch must deep-clone again.
  ASSERT_TRUE(
      fixture.pipeline->UpdateAndTransform(fixture.chunks[2]).ok());
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> third = publisher.Acquire();
  EXPECT_NE(third->pipeline.get(), first->pipeline.get());
  EXPECT_EQ(third->pipeline_version, fixture.pipeline->state_version());
}

TEST(SnapshotPublisherTest, ReaderFastPathCachesUntilEpochAdvances) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  SnapshotReader reader(&publisher);

  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> first = reader.Current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reader.cached_epoch(), 1u);
  // No publish in between: the exact same object comes back.
  EXPECT_EQ(reader.Current().get(), first.get());

  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> second = reader.Current();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(reader.cached_epoch(), 2u);
  EXPECT_EQ(reader.stale_reads(), 0u);
  EXPECT_EQ(reader.torn_reads(), 0u);
}

TEST(SnapshotPublisherTest, HoldingAReferenceKeepsTheOldEpochAlive) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  SnapshotReader reader(&publisher);
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  std::shared_ptr<const ModelSnapshot> held = reader.Current();

  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);
  // The in-flight request's epoch is untouched by later publishes.
  EXPECT_EQ(held->epoch, 1u);
  EXPECT_TRUE(held->Consistent());
  EXPECT_NE(
      SerialScores(*held->pipeline, *held->model, fixture.probe).size(), 0u);
}

TEST(SnapshotPublisherTest, PublishPrebuiltSnapshot) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->pipeline =
      std::shared_ptr<const Pipeline>(fixture.pipeline->Clone());
  snapshot->model = std::make_shared<const LinearModel>(*fixture.model);
  snapshot->pipeline_version = fixture.pipeline->state_version();
  EXPECT_EQ(publisher.Publish(std::move(snapshot)), 1u);
  std::shared_ptr<const ModelSnapshot> acquired = publisher.Acquire();
  ASSERT_NE(acquired, nullptr);
  EXPECT_TRUE(acquired->Consistent());
  EXPECT_EQ(acquired->epoch_check, 1u);
}

}  // namespace
}  // namespace serving
}  // namespace cdpipe

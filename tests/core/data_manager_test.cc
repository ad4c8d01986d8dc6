#include "src/core/data_manager.h"

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

FeatureChunk MakeFeatures(ChunkId id) {
  FeatureChunk chunk;
  chunk.origin_id = id;
  chunk.data.dim = 2;
  chunk.data.features.push_back(SparseVector::FromUnsorted(2, {{0, 1.0}}));
  chunk.data.labels.push_back(1.0);
  return chunk;
}

DataManager MakeManager(size_t max_materialized = SIZE_MAX) {
  ChunkStore::Options store;
  store.max_materialized_chunks = max_materialized;
  return DataManager(store, MakeSampler(SamplerKind::kUniform));
}

// Appends a one-record chunk under the manager's next id.
Status Ingest(DataManager* manager, int64_t event_time_seconds) {
  RawChunk chunk;
  chunk.id = manager->next_id();
  chunk.event_time_seconds = event_time_seconds;
  chunk.records = {"r"};
  return manager->IngestChunk(std::move(chunk));
}

TEST(DataManagerTest, IngestAssignsSequentialIds) {
  DataManager manager = MakeManager();
  ASSERT_TRUE(Ingest(&manager, 0).ok());
  EXPECT_EQ(manager.next_id(), 1);
  ASSERT_TRUE(Ingest(&manager, 60).ok());
  EXPECT_EQ(manager.next_id(), 2);
  EXPECT_EQ(manager.store().num_raw(), 2u);
}

TEST(DataManagerTest, IngestChunkRespectsIdOrdering) {
  DataManager manager = MakeManager();
  RawChunk chunk;
  chunk.id = 5;
  chunk.records = {"x"};
  ASSERT_TRUE(manager.IngestChunk(chunk).ok());
  EXPECT_EQ(manager.next_id(), 6);
  RawChunk stale;
  stale.id = 2;
  stale.records = {"y"};
  EXPECT_FALSE(manager.IngestChunk(stale).ok());
}

TEST(DataManagerTest, SampleOnEmptyStoreFails) {
  DataManager manager = MakeManager();
  Rng rng(1);
  EXPECT_FALSE(manager.SampleForTraining(3, &rng).ok());
}

TEST(DataManagerTest, SampleSplitsByMaterialization) {
  DataManager manager = MakeManager(/*max_materialized=*/2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Ingest(&manager, i * 60).ok());
    ASSERT_TRUE(manager.StoreFeatures(MakeFeatures(i)).ok());
  }
  // Chunks 0,1 evicted; 2,3 materialized.
  Rng rng(2);
  auto sample = manager.SampleForTraining(4, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_chunks(), 4u);
  EXPECT_EQ(sample->materialized.size(), 2u);
  EXPECT_EQ(sample->to_rematerialize.size(), 2u);
  for (const FeatureChunk* chunk : sample->materialized) {
    EXPECT_GE(chunk->origin_id, 2);
  }
  for (const RawChunk* chunk : sample->to_rematerialize) {
    EXPECT_LT(chunk->id, 2);
  }
  EXPECT_EQ(manager.store().counters().SampleHits(), 2);
  EXPECT_EQ(manager.store().counters().sample_misses, 2);
}

TEST(DataManagerTest, SampleSmallerThanStore) {
  DataManager manager = MakeManager();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(Ingest(&manager, i).ok());
  }
  Rng rng(3);
  auto sample = manager.SampleForTraining(4, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_chunks(), 4u);
}

}  // namespace
}  // namespace cdpipe

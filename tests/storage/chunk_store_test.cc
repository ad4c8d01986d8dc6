#include "src/storage/chunk_store.h"

#include <gtest/gtest.h>

#include <random>

#include "src/sampling/mu_theory.h"

namespace cdpipe {
namespace {

RawChunk MakeRaw(ChunkId id, size_t records = 2) {
  RawChunk chunk;
  chunk.id = id;
  chunk.event_time_seconds = id * 60;
  for (size_t i = 0; i < records; ++i) {
    chunk.records.push_back("record-" + std::to_string(id));
  }
  return chunk;
}

FeatureChunk MakeFeatures(ChunkId id) {
  FeatureChunk chunk;
  chunk.origin_id = id;
  chunk.event_time_seconds = id * 60;
  chunk.data.dim = 4;
  chunk.data.features.push_back(SparseVector::FromUnsorted(4, {{0, 1.0}}));
  chunk.data.labels.push_back(1.0);
  return chunk;
}

TEST(ChunkStoreTest, PutAndGetRaw) {
  ChunkStore store;
  ASSERT_TRUE(store.PutRaw(MakeRaw(0)).ok());
  ASSERT_TRUE(store.PutRaw(MakeRaw(1)).ok());
  EXPECT_EQ(store.num_raw(), 2u);
  EXPECT_TRUE(store.Contains(0));
  ASSERT_NE(store.GetRaw(1), nullptr);
  EXPECT_EQ(store.GetRaw(1)->id, 1);
  EXPECT_EQ(store.GetRaw(99), nullptr);
  EXPECT_GT(store.RawBytes(), 0u);
}

TEST(ChunkStoreTest, IdsMustIncrease) {
  ChunkStore store;
  ASSERT_TRUE(store.PutRaw(MakeRaw(5)).ok());
  EXPECT_FALSE(store.PutRaw(MakeRaw(5)).ok());
  EXPECT_FALSE(store.PutRaw(MakeRaw(3)).ok());
  EXPECT_TRUE(store.PutRaw(MakeRaw(6)).ok());
}

TEST(ChunkStoreTest, LiveIdsInOrder) {
  ChunkStore store;
  for (ChunkId id : {0, 1, 2}) ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  EXPECT_EQ(store.LiveIds(), (std::vector<ChunkId>{0, 1, 2}));
}

TEST(ChunkStoreTest, FeaturesRequireRawChunk) {
  ChunkStore store;
  EXPECT_FALSE(store.PutFeatures(MakeFeatures(7)).ok());
  ASSERT_TRUE(store.PutRaw(MakeRaw(7)).ok());
  EXPECT_TRUE(store.PutFeatures(MakeFeatures(7)).ok());
  EXPECT_TRUE(store.IsMaterialized(7));
  EXPECT_NE(store.GetFeatures(7), nullptr);
}

TEST(ChunkStoreTest, EvictsOldestMaterialized) {
  ChunkStore::Options options;
  options.max_materialized_chunks = 2;
  ChunkStore store(options);
  for (ChunkId id : {0, 1, 2}) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    ASSERT_TRUE(store.PutFeatures(MakeFeatures(id)).ok());
  }
  EXPECT_EQ(store.num_materialized(), 2u);
  EXPECT_FALSE(store.IsMaterialized(0));  // oldest evicted
  EXPECT_TRUE(store.IsMaterialized(1));
  EXPECT_TRUE(store.IsMaterialized(2));
  // The raw chunk survives eviction (only the content is dropped).
  EXPECT_TRUE(store.Contains(0));
  EXPECT_EQ(store.counters().evictions, 1);
}

TEST(ChunkStoreTest, MaterializationDisabledStoresNothing) {
  ChunkStore::Options options;
  options.max_materialized_chunks = 0;
  ChunkStore store(options);
  ASSERT_TRUE(store.PutRaw(MakeRaw(0)).ok());
  EXPECT_TRUE(store.PutFeatures(MakeFeatures(0)).ok());
  EXPECT_EQ(store.num_materialized(), 0u);
  EXPECT_FALSE(store.IsMaterialized(0));
}

// The cache is append-only: a stored id, or one older than the newest
// stored, is refused as in PutRaw — also once it has been evicted.
TEST(ChunkStoreTest, FeatureIdsMustIncrease) {
  ChunkStore::Options options;
  options.max_materialized_chunks = 2;
  ChunkStore store(options);
  for (ChunkId id : {3, 5, 7, 9}) ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(5)).ok());
  EXPECT_EQ(store.PutFeatures(MakeFeatures(5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.PutFeatures(MakeFeatures(3)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(7)).ok());
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(9)).ok());  // evicts 5
  EXPECT_FALSE(store.IsMaterialized(5));
  EXPECT_EQ(store.PutFeatures(MakeFeatures(5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.counters().features_inserted, 3);
  EXPECT_EQ(store.num_materialized(), 2u);
}

TEST(ChunkStoreTest, BoundedRawDropsOldestAndItsFeatures) {
  ChunkStore::Options options;
  options.max_raw_chunks = 2;
  ChunkStore store(options);
  for (ChunkId id : {0, 1}) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    ASSERT_TRUE(store.PutFeatures(MakeFeatures(id)).ok());
  }
  ASSERT_TRUE(store.PutRaw(MakeRaw(2)).ok());
  EXPECT_EQ(store.num_raw(), 2u);
  EXPECT_FALSE(store.Contains(0));
  EXPECT_FALSE(store.IsMaterialized(0));
  EXPECT_EQ(store.LiveIds(), (std::vector<ChunkId>{1, 2}));
  EXPECT_EQ(store.counters().raw_dropped, 1);
}

TEST(ChunkStoreTest, LiveIdsAfterPutsPredictsTheRetentionBound) {
  // The next sample is staged from this prediction; it must equal LiveIds()
  // once the chunks are really put, whether or not N drops some.
  for (const size_t bound : {0, 3, 5}) {
    ChunkStore::Options options;
    options.max_raw_chunks = bound;
    ChunkStore store(options);
    for (ChunkId id : {0, 1, 2, 3}) ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    for (const size_t count : {0, 1, 2, 4}) {
      const ChunkId first = store.LiveIds().back() + 1;
      const std::vector<ChunkId> predicted =
          store.LiveIdsAfterPuts(first, count);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_TRUE(
            store.PutRaw(MakeRaw(first + static_cast<ChunkId>(i))).ok());
      }
      EXPECT_EQ(predicted, store.LiveIds())
          << "bound " << bound << ", " << count << " puts";
    }
  }
}

TEST(ChunkStoreTest, SampleAccessCountsHitsAndMisses) {
  ChunkStore::Options options;
  options.max_materialized_chunks = 1;
  ChunkStore store(options);
  ASSERT_TRUE(store.PutRaw(MakeRaw(0)).ok());
  ASSERT_TRUE(store.PutRaw(MakeRaw(1)).ok());
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(0)).ok());
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(1)).ok());  // evicts 0
  store.RecordSampleAccess(0);
  store.RecordSampleAccess(1);
  store.RecordSampleAccess(1);
  EXPECT_EQ(store.counters().memory_hits, 2);
  EXPECT_EQ(store.counters().disk_hits, 0);
  EXPECT_EQ(store.counters().SampleHits(), 2);
  EXPECT_EQ(store.counters().sample_misses, 1);
  EXPECT_NEAR(store.counters().EmpiricalMu(), 2.0 / 3.0, 1e-12);
}

TEST(ChunkStoreTest, ResetCountersKeepsData) {
  ChunkStore store;
  ASSERT_TRUE(store.PutRaw(MakeRaw(0)).ok());
  store.RecordSampleAccess(0);
  store.ResetCounters();
  EXPECT_EQ(store.counters().sample_misses, 0);
  EXPECT_EQ(store.counters().raw_inserted, 0);
  EXPECT_EQ(store.num_raw(), 1u);
}

TEST(ChunkStoreTest, ByteAccountingFollowsEviction) {
  ChunkStore::Options options;
  options.max_materialized_chunks = 1;
  ChunkStore store(options);
  ASSERT_TRUE(store.PutRaw(MakeRaw(0)).ok());
  ASSERT_TRUE(store.PutRaw(MakeRaw(1)).ok());
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(0)).ok());
  const size_t one = store.MaterializedBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(1)).ok());
  EXPECT_EQ(store.MaterializedBytes(), one);  // evicted 0, stored 1
}

TEST(ChunkStoreTest, EmptyMuIsZero) {
  ChunkStore store;
  EXPECT_DOUBLE_EQ(store.counters().EmpiricalMu(), 0.0);
}

// A re-materialized chunk feeds one proactive step and is not cached again
// (§3.2): putting its features back is refused, and neither the insertion
// count nor the cached features move.
TEST(ChunkStoreTest, RematerializationIsNotAnInsertion) {
  ChunkStore store;
  ASSERT_TRUE(store.PutRaw(MakeRaw(0)).ok());
  ASSERT_TRUE(store.PutFeatures(MakeFeatures(0)).ok());
  FeatureChunk replacement = MakeFeatures(0);
  replacement.data.labels[0] = -1.0;
  EXPECT_EQ(store.PutFeatures(std::move(replacement)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.counters().features_inserted, 1);
  EXPECT_EQ(store.num_materialized(), 1u);
  EXPECT_EQ(store.counters().evictions, 0);
  EXPECT_DOUBLE_EQ(store.GetFeatures(0)->data.labels[0], 1.0);
}

TEST(ChunkStoreTest, EmpiricalMuMatchesAnalyticalUnderUniformSampling) {
  // A bounded store keeps the m newest of N chunks materialized; uniform
  // sampling over all N live chunks must measure μ ≈ m/N (§3: MuUniform).
  constexpr size_t kTotal = 16;
  constexpr size_t kMaterialized = 4;
  ChunkStore::Options options;
  options.max_materialized_chunks = kMaterialized;
  ChunkStore store(options);
  for (ChunkId id = 0; id < static_cast<ChunkId>(kTotal); ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    ASSERT_TRUE(store.PutFeatures(MakeFeatures(id)).ok());
  }
  ASSERT_EQ(store.num_materialized(), kMaterialized);

  std::mt19937 rng(42);
  std::uniform_int_distribution<ChunkId> pick(
      0, static_cast<ChunkId>(kTotal) - 1);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) store.RecordSampleAccess(pick(rng));

  // MuUniformAtN is the steady-state formula for a fixed store of N chunks
  // (MuUniform averages over the growing stream n = 1..N instead).
  const double analytical = MuUniformAtN(kTotal, kMaterialized);
  EXPECT_DOUBLE_EQ(analytical,
                   static_cast<double>(kMaterialized) / kTotal);
  EXPECT_NEAR(store.counters().EmpiricalMu(), analytical, 0.01);
}

}  // namespace
}  // namespace cdpipe

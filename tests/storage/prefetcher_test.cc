// Prefetcher tests: async staging on the engine's async lane, consumption
// through FetchRaw, stale-slot recycling, and containment of injected
// failures (including throwing faults).  These run the real worker thread,
// so they double as the TSan target for the tier_mu_/tier_cv_ protocol.

#include "src/storage/prefetcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "src/engine/execution_engine.h"
#include "src/obs/metrics.h"
#include "src/storage/chunk_store.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {

namespace fs = std::filesystem;

constexpr size_t kChunkBytes = 64;

RawChunk MakeRaw(ChunkId id) {
  RawChunk chunk;
  chunk.id = id;
  chunk.event_time_seconds = static_cast<int64_t>(id) * 60;
  chunk.records = {std::string(kChunkBytes, 'p')};
  return chunk;
}

class PrefetcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdpipe_prefetcher_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ChunkStore::Options SpillOptions(size_t memory_chunks) const {
    ChunkStore::Options options;
    options.memory_budget_bytes = memory_chunks * kChunkBytes;
    options.spill_dir = dir_.string();
    return options;
  }

  fs::path dir_;
};

TEST_F(PrefetcherTest, StagedLoadIsConsumedAsPrefetchHit) {
  // Declaration order = reverse destruction order: the prefetcher drains
  // its loads before the store or engine can die.
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  Prefetcher prefetcher(&store, &engine);
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  ASSERT_TRUE(store.IsSpilled(0));
  prefetcher.Schedule({0, 1});
  EXPECT_EQ(prefetcher.stats().scheduled, 2);
  prefetcher.Drain();

  const RawChunk* loaded = store.FetchRaw(0);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->records, MakeRaw(0).records);
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.prefetch_hits, 1);
  EXPECT_EQ(counters.disk_loads, 0);
  EXPECT_DOUBLE_EQ(counters.PrefetchHitRate(), 1.0);
}

TEST_F(PrefetcherTest, MemoryResidentIdsAreIgnored) {
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  Prefetcher prefetcher(&store, &engine);
  for (ChunkId id = 0; id < 4; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  // ids 2,3 are memory-resident, 99 is dead: nothing to schedule for them.
  prefetcher.Schedule({2, 3, 99});
  EXPECT_EQ(prefetcher.stats().scheduled, 0);
}

TEST_F(PrefetcherTest, DuplicateScheduleIsDeduplicated) {
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  Prefetcher prefetcher(&store, &engine);
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  prefetcher.Schedule({0, 0, 1});
  prefetcher.Drain();
  // A second window re-listing staged ids must not enqueue new loads: the
  // staged bytes are exactly what the consumer is about to want.
  prefetcher.Schedule({0, 1});
  prefetcher.Drain();
  EXPECT_EQ(prefetcher.stats().scheduled, 2);
}

TEST_F(PrefetcherTest, FetchBlocksOnInFlightLoadInsteadOfRereading) {
  // Schedule without draining: FetchRaw may catch the load mid-flight and
  // must wait for the deposit rather than issue a second read.
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  Prefetcher prefetcher(&store, &engine);
  for (ChunkId id = 0; id < 8; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  prefetcher.Schedule({0, 1, 2, 3});
  const RawChunk* loaded = store.FetchRaw(2);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->id, 2);
  prefetcher.Drain();
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.prefetch_hits + counters.disk_loads, 1);
}

TEST_F(PrefetcherTest, StaleSlotsAreDroppedOnReschedule) {
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  Prefetcher prefetcher(&store, &engine);
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  prefetcher.Schedule({0});
  prefetcher.Drain();
  // The next window doesn't include 0: its staged slot is recycled and a
  // fresh schedule for 0 enqueues a new load.
  prefetcher.Schedule({1});
  prefetcher.Drain();
  prefetcher.Schedule({0});
  prefetcher.Drain();
  EXPECT_EQ(prefetcher.stats().scheduled, 3);
}

TEST_F(PrefetcherTest, ThrowingPrefetchIsContainedAndFallsBackToSync) {
  // The satellite scenario: a throwing fault on the async read must neither
  // kill the worker nor wedge FetchRaw — the sample path falls back to a
  // synchronous load, which succeeds once the rule is exhausted.
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  Prefetcher prefetcher(&store, &engine);
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  {
    testing::FaultRule rule = testing::FaultRule::FirstN(1);
    rule.throws = true;
    testing::ScopedFaultScript script({{"spill.read", rule}});
    prefetcher.Schedule({0});
    prefetcher.Drain();
  }
  const RawChunk* loaded = store.FetchRaw(0);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->id, 0);
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.prefetch_hits, 0);
  EXPECT_EQ(counters.disk_loads, 1);
  EXPECT_TRUE(store.Contains(0));
}

TEST_F(PrefetcherTest, CorruptFileDetectedByWorkerDropsChunkOnConsume) {
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  Prefetcher prefetcher(&store, &engine);
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  testing::ScopedFaultScript script(
      {{"spill.corrupt", testing::FaultRule::FirstN(1)}});
  prefetcher.Schedule({0});
  prefetcher.Drain();
  // The worker observed the corruption; the consumer drops the chunk
  // without a second read and without double counting.
  EXPECT_EQ(store.FetchRaw(0), nullptr);
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.spill_corrupt_detected, 1);
  EXPECT_EQ(counters.spilled_chunks_dropped, 1);
  EXPECT_FALSE(store.Contains(0));
  EXPECT_EQ(counters.spill_corrupt_detected,
            testing::FaultInjector::Global().StatsFor("spill.corrupt").triggers);
}

TEST_F(PrefetcherTest, ManyWindowsUnderMultiThreadedEngine) {
  // Stress the staging protocol: overlapping windows, consumes racing the
  // worker.  (The async lane is a single worker even when the ParallelFor
  // pool is wider.)
  ExecutionEngine engine(4);
  ChunkStore store(SpillOptions(4));
  Prefetcher prefetcher(&store, &engine);
  ChunkId next = 0;
  for (; next < 16; ++next) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(next)).ok());
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<ChunkId> window;
    for (ChunkId id = round % 8; id < (round % 8) + 4; ++id) {
      window.push_back(id);
    }
    prefetcher.Schedule(window);
    // Consume one mid-flight...
    (void)store.FetchRaw(window[round % window.size()]);
    // ...and keep the log growing, which recycles pinned loads.
    ASSERT_TRUE(store.PutRaw(MakeRaw(next++)).ok());
  }
  prefetcher.Drain();
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.spill_corrupt_detected, 0);
  EXPECT_GT(counters.prefetch_hits + counters.disk_loads, 0);
}

// The async lane is a one-thread ThreadPool: an escaping exception is
// counted on the pool's metric, and the worker survives to run the next
// task.
TEST_F(PrefetcherTest, AsyncExceptionsAreCountedOnThePoolMetric) {
  obs::Counter* exceptions =
      obs::MetricsRegistry::Global().GetCounter("thread_pool.task_exceptions");
  const int64_t before = exceptions->Value();
  ExecutionEngine engine(1);
  bool ran_after = false;
  engine.SubmitAsync([] { throw std::runtime_error("boom"); });
  engine.SubmitAsync([&ran_after] { ran_after = true; });
  engine.DrainAsync();
  EXPECT_EQ(exceptions->Value(), before + 1);
  EXPECT_TRUE(ran_after);
}

}  // namespace
}  // namespace cdpipe

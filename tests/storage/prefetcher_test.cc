// Staged disk loads (ChunkStore::Prefetch on the engine's async lane):
// consumption through FetchRaw, stale-window recycling, containment of
// injected failures (including throwing faults), and a store destroyed
// before its engine while loads are still queued.  These run the real lane
// thread, so they double as the TSan target for the staged futures.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
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

/// Occupies the engine's one-thread async lane until Release() or its own
/// destruction, so the loads submitted meanwhile stay queued.  Declare it
/// after the engine: the engine's destructor waits for the lane.
class ParkedLane {
 public:
  explicit ParkedLane(ExecutionEngine* engine) {
    engine->SubmitAsync([released = released_] {
      while (!released->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~ParkedLane() { Release(); }
  void Release() { released_->store(true); }

 private:
  std::shared_ptr<std::atomic<bool>> released_ =
      std::make_shared<std::atomic<bool>>(false);
};

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
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  ASSERT_TRUE(store.IsSpilled(0));
  EXPECT_EQ(store.Prefetch({0, 1}, &engine), 2u);
  engine.DrainAsync();

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
  for (ChunkId id = 0; id < 4; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  // ids 2,3 are memory-resident, 99 is dead: nothing to stage for them.
  EXPECT_EQ(store.Prefetch({2, 3, 99}, &engine), 0u);
}

TEST_F(PrefetcherTest, DuplicateScheduleIsDeduplicated) {
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  EXPECT_EQ(store.Prefetch({0, 0, 1}, &engine), 2u);
  engine.DrainAsync();
  // A second window re-listing staged ids must not submit new loads: the
  // staged bytes are exactly what the consumer is about to want.
  EXPECT_EQ(store.Prefetch({0, 1}, &engine), 0u);
}

TEST_F(PrefetcherTest, FetchBlocksOnInFlightLoadInsteadOfRereading) {
  // The loads queue behind a sleeping task, so FetchRaw catches chunk 2's
  // load before it ran and must wait for it rather than read the file
  // itself.
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 8; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  engine.SubmitAsync(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  EXPECT_EQ(store.Prefetch({0, 1, 2, 3}, &engine), 4u);
  const RawChunk* loaded = store.FetchRaw(2);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->id, 2);
  engine.DrainAsync();
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.prefetch_hits, 1);
  EXPECT_EQ(counters.disk_loads, 0);
}

TEST_F(PrefetcherTest, StaleSlotsAreDroppedOnReschedule) {
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  EXPECT_EQ(store.Prefetch({0}, &engine), 1u);
  engine.DrainAsync();
  // The next window doesn't include 0: its finished load is recycled and
  // a later window listing 0 submits a new one.
  EXPECT_EQ(store.Prefetch({1}, &engine), 1u);
  engine.DrainAsync();
  EXPECT_EQ(store.Prefetch({0}, &engine), 1u);
  engine.DrainAsync();

  // A load still in flight survives a window that drops it: listing its id
  // again submits nothing, and FetchRaw collects it.
  ParkedLane parked(&engine);
  EXPECT_EQ(store.Prefetch({2}, &engine), 1u);
  EXPECT_EQ(store.Prefetch({3}, &engine), 1u);
  EXPECT_EQ(store.Prefetch({2}, &engine), 0u);
  parked.Release();
  ASSERT_NE(store.FetchRaw(2), nullptr);
  engine.DrainAsync();
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.prefetch_hits, 1);
  EXPECT_EQ(counters.disk_loads, 0);
}

TEST_F(PrefetcherTest, ThrowingPrefetchIsContainedAndFallsBackToSync) {
  // A throwing fault on the async read must neither kill the lane nor
  // wedge FetchRaw — the sample path falls back to a synchronous load,
  // which succeeds once the rule is exhausted.
  ExecutionEngine engine(1);
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  {
    testing::FaultRule rule = testing::FaultRule::FirstN(1);
    rule.throws = true;
    testing::ScopedFaultScript script({{"spill.read", rule}});
    EXPECT_EQ(store.Prefetch({0}, &engine), 1u);
    engine.DrainAsync();
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
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  testing::ScopedFaultScript script(
      {{"spill.corrupt", testing::FaultRule::FirstN(1)}});
  EXPECT_EQ(store.Prefetch({0}, &engine), 1u);
  engine.DrainAsync();
  // The staged read observed the corruption; the consumer drops the chunk
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
  // Overlapping windows, consumes racing the lane.  (The async lane is a
  // single worker even when the ParallelFor pool is wider.)
  ExecutionEngine engine(4);
  ChunkStore store(SpillOptions(4));
  ChunkId next = 0;
  for (; next < 16; ++next) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(next)).ok());
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<ChunkId> window;
    for (ChunkId id = round % 8; id < (round % 8) + 4; ++id) {
      window.push_back(id);
    }
    store.Prefetch(window, &engine);
    // Consume one mid-flight...
    (void)store.FetchRaw(window[round % window.size()]);
    // ...and keep the log growing, which recycles pinned loads.
    ASSERT_TRUE(store.PutRaw(MakeRaw(next++)).ok());
  }
  engine.DrainAsync();
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.spill_corrupt_detected, 0);
  EXPECT_GT(counters.prefetch_hits + counters.disk_loads, 0);
}

TEST_F(PrefetcherTest, StoreDestroyedBeforeEngineWithLoadsQueued) {
  // The loads hold no pointer into the store, so the store may die while
  // they wait on the lane; they then read deleted files and fail quietly.
  testing::ScopedFaultScript script(
      {{"spill.read", testing::FaultRule::Never()}});
  ExecutionEngine engine(1);
  ParkedLane parked(&engine);
  {
    ChunkStore store(SpillOptions(2));
    for (ChunkId id = 0; id < 8; ++id) {
      ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    }
    EXPECT_EQ(store.Prefetch({0, 1, 2, 3}, &engine), 4u);
  }
  EXPECT_TRUE(fs::is_empty(dir_));
  parked.Release();
  engine.DrainAsync();
  EXPECT_EQ(
      testing::FaultInjector::Global().StatsFor("spill.read").invocations, 4);
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

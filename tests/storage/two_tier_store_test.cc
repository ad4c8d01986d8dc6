// Two-tier chunk store tests: spill mechanics (deterministic residency,
// budget enforcement, byte accounting), cross-tier liveness, degrade paths,
// and the per-tier μ property grid.
//
// Tier residency is closed-form: with fixed-size records the memory tier is
// exactly the newest r = budget / chunk_bytes chunks, so the memory-tier
// materialized set is the newest min(m, r) chunks and
//   μ_mem ≈ Mu(N, min(m, r)),   μ_disk ≈ Mu(N, m) − Mu(N, min(m, r))
// for both the uniform and window closed forms from §3.2.2 — the PR 3 μ
// grid re-validated per tier.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/obs/metrics.h"
#include "src/sampling/mu_theory.h"
#include "src/sampling/sampler.h"
#include "src/storage/chunk_store.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {

namespace fs = std::filesystem;

constexpr size_t kChunkBytes = 64;  // one fixed-size record per chunk

RawChunk MakeRaw(ChunkId id) {
  RawChunk chunk;
  chunk.id = id;
  chunk.event_time_seconds = static_cast<int64_t>(id) * 60;
  // Fixed-size record → tier residency is a pure function of the budget.
  std::string record(kChunkBytes, 'x');
  const std::string tag = std::to_string(id);
  record.replace(0, tag.size(), tag);
  chunk.records = {std::move(record)};
  return chunk;
}

FeatureChunk MakeFeatures(ChunkId id) {
  FeatureChunk chunk;
  chunk.origin_id = id;
  chunk.event_time_seconds = static_cast<int64_t>(id) * 60;
  return chunk;
}

class TwoTierStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdpipe_two_tier_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// A store whose memory tier holds exactly `memory_chunks` chunks.
  ChunkStore::Options SpillOptions(size_t memory_chunks) const {
    ChunkStore::Options options;
    options.memory_budget_bytes = memory_chunks * kChunkBytes;
    options.spill_dir = dir_.string();
    return options;
  }

  size_t NumSpillFiles() const {
    size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      (void)entry;
      ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(TwoTierStoreTest, ResidencyIsDeterministicNewestSuffixInMemory) {
  ChunkStore store(SpillOptions(3));
  for (ChunkId id = 0; id < 10; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  EXPECT_EQ(store.num_raw(), 10u);
  EXPECT_EQ(store.num_spilled(), 7u);
  EXPECT_EQ(store.RawBytes(), 3 * kChunkBytes);
  EXPECT_EQ(NumSpillFiles(), 7u);
  EXPECT_GT(store.DiskBytes(), 0u);
  // Newest 3 in memory, oldest 7 on disk — exactly.
  for (ChunkId id = 0; id < 10; ++id) {
    EXPECT_TRUE(store.Contains(id));
    EXPECT_EQ(store.IsSpilled(id), id < 7) << "id " << id;
    EXPECT_EQ(store.GetRaw(id) != nullptr, id >= 7) << "id " << id;
  }
  // LiveIds spans both tiers, oldest first.
  const std::vector<ChunkId> live = store.LiveIds();
  ASSERT_EQ(live.size(), 10u);
  EXPECT_EQ(live.front(), 0);
  EXPECT_EQ(live.back(), 9);
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.chunks_spilled, 7);
  EXPECT_EQ(counters.spill_raw_bytes,
            static_cast<int64_t>(7 * kChunkBytes));
  EXPECT_GT(counters.spill_bytes_written, 0);
}

TEST_F(TwoTierStoreTest, SpillingDisabledWithoutBudgetOrDir) {
  ChunkStore::Options no_dir;
  no_dir.memory_budget_bytes = kChunkBytes;
  EXPECT_FALSE(ChunkStore(no_dir).spilling_enabled());
  ChunkStore::Options no_budget;
  no_budget.spill_dir = dir_.string();
  EXPECT_FALSE(ChunkStore(no_budget).spilling_enabled());
  ChunkStore store(no_dir);
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  EXPECT_EQ(store.num_spilled(), 0u);
}

TEST_F(TwoTierStoreTest, NewestChunkIsNeverSpilled) {
  // Even with a budget below one chunk, the just-inserted chunk stays: the
  // deployment loop reads it back immediately after PutRaw.
  ChunkStore::Options options;
  options.memory_budget_bytes = 1;
  options.spill_dir = dir_.string();
  ChunkStore store(options);
  for (ChunkId id = 0; id < 4; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    EXPECT_NE(store.GetRaw(id), nullptr) << "id " << id;
  }
  EXPECT_EQ(store.num_spilled(), 3u);
}

TEST_F(TwoTierStoreTest, FetchRawLoadsSpilledChunkBitExactly) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  ASSERT_TRUE(store.IsSpilled(0));
  const RawChunk* loaded = store.FetchRaw(0);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->id, 0);
  EXPECT_EQ(loaded->records, MakeRaw(0).records);
  EXPECT_EQ(store.counters().disk_loads, 1);
  // The chunk stays on disk — a fetch is a read, not a promotion.
  EXPECT_TRUE(store.IsSpilled(0));
  // Memory-tier fetches don't touch the disk counters.
  ASSERT_NE(store.FetchRaw(5), nullptr);
  EXPECT_EQ(store.counters().disk_loads, 1);
}

TEST_F(TwoTierStoreTest, FetchedPointerValidUntilNextPutRaw) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  const RawChunk* a = store.FetchRaw(0);
  const RawChunk* b = store.FetchRaw(1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Both pins must coexist (a retrain pass fetches many spilled chunks).
  EXPECT_EQ(a->id, 0);
  EXPECT_EQ(b->id, 1);
}

TEST_F(TwoTierStoreTest, SpilledChunksRemainFeatureOrigins) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  ASSERT_TRUE(store.IsSpilled(0));
  EXPECT_TRUE(store.PutFeatures(MakeFeatures(0)).ok());
  EXPECT_TRUE(store.IsMaterialized(0));
}

TEST_F(TwoTierStoreTest, RetentionBoundDropsSpilledFiles) {
  ChunkStore::Options options = SpillOptions(2);
  options.max_raw_chunks = 4;
  ChunkStore store(options);
  for (ChunkId id = 0; id < 8; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  EXPECT_EQ(store.num_raw(), 4u);
  EXPECT_EQ(store.num_spilled(), 2u);  // ids 4,5 on disk; 6,7 in memory
  EXPECT_EQ(NumSpillFiles(), 2u);      // dropped chunks' files deleted
  EXPECT_FALSE(store.Contains(3));
  EXPECT_TRUE(store.IsSpilled(4));
  EXPECT_NE(store.GetRaw(6), nullptr);
}

TEST_F(TwoTierStoreTest, DestructorRemovesSpillFiles) {
  {
    ChunkStore store(SpillOptions(1));
    for (ChunkId id = 0; id < 4; ++id) {
      ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    }
    EXPECT_EQ(NumSpillFiles(), 3u);
  }
  EXPECT_EQ(NumSpillFiles(), 0u);
}

TEST_F(TwoTierStoreTest, PerTierHitAccounting) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    ASSERT_TRUE(store.PutFeatures(MakeFeatures(id)).ok());
  }
  // ids 0..2 spilled, 3..4 in memory; all five materialized.
  store.RecordSampleAccess(0);  // disk hit
  store.RecordSampleAccess(4);  // memory hit
  store.RecordSampleAccess(3);  // memory hit
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.disk_hits, 1);
  EXPECT_EQ(counters.memory_hits, 2);
  EXPECT_EQ(counters.SampleHits(), 3);
  EXPECT_EQ(counters.sample_misses, 0);
  EXPECT_DOUBLE_EQ(counters.EmpiricalMu(), 1.0);
  EXPECT_DOUBLE_EQ(counters.MemoryMu() + counters.DiskMu(),
                   counters.EmpiricalMu());
}

TEST_F(TwoTierStoreTest, SpillWriteFaultDegradesToKeepInMemory) {
  testing::ScopedFaultScript script(
      {{"spill.write", testing::FaultRule::FirstN(2)}});
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.spill_failures, 2);
  // Two failed passes kept their chunks in memory (budget exceeded);
  // later inserts retried and succeeded.
  EXPECT_EQ(counters.chunks_spilled, 3);
  EXPECT_EQ(store.RawBytes(), 2 * kChunkBytes);
  // Nothing lost: every chunk still live.
  for (ChunkId id = 0; id < 5; ++id) EXPECT_TRUE(store.Contains(id));
}

TEST_F(TwoTierStoreTest, CorruptSpillFileIsDetectedAndChunkDropped) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
    ASSERT_TRUE(store.PutFeatures(MakeFeatures(id)).ok());
  }
  testing::ScopedFaultScript script(
      {{"spill.corrupt", testing::FaultRule::FirstN(1)}});
  EXPECT_EQ(store.FetchRaw(0), nullptr);
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.spill_corrupt_detected, 1);
  EXPECT_EQ(counters.spilled_chunks_dropped, 1);
  EXPECT_EQ(counters.raw_dropped, 0);  // reserved for retention drops
  // Recompute-from-nothing: the chunk is gone from every index.
  EXPECT_FALSE(store.Contains(0));
  EXPECT_FALSE(store.IsMaterialized(0));
  EXPECT_EQ(store.LiveIds().size(), 4u);
  // Exactly as many detections as injected corruptions.
  EXPECT_EQ(counters.spill_corrupt_detected,
            testing::FaultInjector::Global().StatsFor("spill.corrupt").triggers);
}

TEST_F(TwoTierStoreTest, OverflowingSpillLengthsAreCorruptionNotRetry) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  // Replace chunk 0's file with a checksum-valid one whose two raw-mode
  // record lengths (64 and 2^64 - 60) wrap to a sum of 4.
  const std::string path = (dir_ / "chunk_0.spill").string();
  ASSERT_TRUE(fs::exists(path));
  std::string bytes("CDSPILL1"
                    "\x00\x00"          // id 0, event time 0
                    "\x01\x04\x02\x00"  // one string column, 2 rows, no nulls
                    "\x00"              // raw mode
                    "\x40"              // 64
                    "\xc4\xff\xff\xff\xff\xff\xff\xff\xff\x01"  // 2^64 - 60
                    "xxxxxxxx",
                    34);
  const uint64_t sum = Fnv1a64(bytes);
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>(sum >> (8 * i)));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  // Corrupt bytes are dropped once, not retried on every access.
  EXPECT_EQ(store.FetchRaw(0), nullptr);
  EXPECT_EQ(store.counters().spill_corrupt_detected, 1);
  EXPECT_EQ(store.counters().spilled_chunks_dropped, 1);
  EXPECT_FALSE(store.Contains(0));
}

TEST_F(TwoTierStoreTest, ReadFailureKeepsChunkLiveForRetry) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  {
    testing::ScopedFaultScript script(
        {{"spill.read", testing::FaultRule::FirstN(1)}});
    EXPECT_EQ(store.FetchRaw(0), nullptr);
  }
  // Transient failure: the chunk is still live and the retry succeeds.
  EXPECT_TRUE(store.Contains(0));
  EXPECT_NE(store.FetchRaw(0), nullptr);
  EXPECT_EQ(store.counters().spilled_chunks_dropped, 0);
}

TEST_F(TwoTierStoreTest, ResetCountersRefreshesResidencyGauges) {
  ChunkStore store(SpillOptions(2));
  for (ChunkId id = 0; id < 5; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  store.ResetCounters();
  const ChunkStore::Counters counters = store.counters();
  EXPECT_EQ(counters.chunks_spilled, 0);
  EXPECT_EQ(counters.spill_corrupt_detected, 0);
  // The gauges mirror residency, which ResetCounters leaves intact.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetGauge("chunk_store.num_raw")->Value(), 5.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("chunk_store.spill_files")->Value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("chunk_store.disk_bytes")->Value(),
                   static_cast<double>(store.DiskBytes()));
}

TEST_F(TwoTierStoreTest, CompressionRatioIsReportedAndBelowOne) {
  ChunkStore store(SpillOptions(1));
  for (ChunkId id = 0; id < 8; ++id) {
    ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
  }
  const double ratio = store.counters().SpillCompressionRatio();
  EXPECT_GT(ratio, 0.0);
  // 'xxx...' records dictionary/token-compress well below raw size + header.
  EXPECT_LT(ratio, 1.5);
}

// --- Per-tier μ property grid (PR 3 grid re-validated per tier). ---

struct TierMuCase {
  size_t m;       ///< materialized bound
  size_t r;       ///< memory-tier capacity in chunks
  size_t window;  ///< 0 = uniform sampling
  size_t total_chunks;
};

class TierMuPropertyTest : public ::testing::TestWithParam<TierMuCase> {};

TEST_P(TierMuPropertyTest, PerTierEmpiricalMatchesAnalytical) {
  const TierMuCase param = GetParam();
  const fs::path dir =
      fs::temp_directory_path() /
      ("cdpipe_tier_mu_" + std::to_string(param.m) + "_" +
       std::to_string(param.r) + "_" + std::to_string(param.window) + "_" +
       std::to_string(param.total_chunks));
  fs::create_directories(dir);

  std::unique_ptr<Sampler> sampler;
  if (param.window > 0) {
    sampler = std::make_unique<WindowSampler>(param.window);
  } else {
    sampler = std::make_unique<UniformSampler>();
  }

  constexpr int kRepeats = 5;
  constexpr size_t kSampleSize = 10;
  double mem_sum = 0.0, disk_sum = 0.0, total_sum = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    ChunkStore::Options options;
    options.max_materialized_chunks = param.m;
    options.memory_budget_bytes = param.r * kChunkBytes;
    options.spill_dir = dir.string();
    ChunkStore store(options);
    Rng rng(1234u + static_cast<uint64_t>(rep) * 7919u);
    for (ChunkId id = 0; id < static_cast<ChunkId>(param.total_chunks);
         ++id) {
      ASSERT_TRUE(store.PutRaw(MakeRaw(id)).ok());
      ASSERT_TRUE(store.PutFeatures(MakeFeatures(id)).ok());
      for (ChunkId picked :
           sampler->Sample(store.LiveIds(), kSampleSize, &rng)) {
        store.RecordSampleAccess(picked);
      }
    }
    const ChunkStore::Counters counters = store.counters();
    mem_sum += counters.MemoryMu();
    disk_sum += counters.DiskMu();
    total_sum += counters.EmpiricalMu();
  }
  const double mem = mem_sum / kRepeats;
  const double disk = disk_sum / kRepeats;
  const double total = total_sum / kRepeats;

  // The memory-tier materialized set is the newest min(m, r) chunks.
  const size_t mem_materialized = std::min(param.m, param.r);
  double analytical_mem, analytical_total;
  if (param.window > 0) {
    analytical_mem =
        MuWindow(param.total_chunks, mem_materialized, param.window);
    analytical_total = MuWindow(param.total_chunks, param.m, param.window);
  } else {
    analytical_mem = MuUniform(param.total_chunks, mem_materialized);
    analytical_total = MuUniform(param.total_chunks, param.m);
  }
  const double analytical_disk = analytical_total - analytical_mem;

  EXPECT_NEAR(total, analytical_total, 0.03)
      << "m=" << param.m << " r=" << param.r << " w=" << param.window;
  EXPECT_NEAR(mem, analytical_mem, 0.03)
      << "m=" << param.m << " r=" << param.r << " w=" << param.window;
  EXPECT_NEAR(disk, analytical_disk, 0.03)
      << "m=" << param.m << " r=" << param.r << " w=" << param.window;
  if (param.m > param.r) {
    EXPECT_GT(disk, 0.0);  // disk-tier hits exist whenever m exceeds r
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TierMuPropertyTest,
    ::testing::Values(
        // Uniform sampling: materialization reaches past the memory tier
        // (m > r), disk-μ strictly positive.
        TierMuCase{50, 20, 0, 200}, TierMuCase{100, 40, 0, 200},
        // Memory tier covers materialization (m <= r): all hits in memory.
        TierMuCase{20, 50, 0, 200},
        // Window sampling over both tiers.
        TierMuCase{40, 15, 80, 200}, TierMuCase{50, 50, 40, 200}),
    [](const ::testing::TestParamInfo<TierMuCase>& info) {
      return "m" + std::to_string(info.param.m) + "_r" +
             std::to_string(info.param.r) + "_w" +
             std::to_string(info.param.window) + "_N" +
             std::to_string(info.param.total_chunks);
    });

}  // namespace
}  // namespace cdpipe

#include "src/obs/event_journal.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/correlation.h"
#include "src/obs/decision.h"

namespace cdpipe {
namespace obs {
namespace {

TEST(CorrelationScopeTest, NestsAndRestores) {
  EXPECT_FALSE((CorrelationId{1, -1}).empty());
  EXPECT_TRUE(CorrelationScope::Current().empty());
  {
    CorrelationScope outer(1, 10);
    EXPECT_EQ(CorrelationScope::Current(), (CorrelationId{1, 10}));
    {
      CorrelationScope inner(2, 20);
      EXPECT_EQ(CorrelationScope::Current(), (CorrelationId{2, 20}));
      EXPECT_EQ(CorrelationScope::WithEntity(99), (CorrelationId{2, 99}));
    }
    EXPECT_EQ(CorrelationScope::Current(), (CorrelationId{1, 10}));
  }
  EXPECT_TRUE(CorrelationScope::Current().empty());
}

TEST(CorrelationScopeTest, IsPerThread) {
  CorrelationScope scope(7, 70);
  CorrelationId seen_on_other_thread{9, 9};
  std::thread other([&] { seen_on_other_thread = CorrelationScope::Current(); });
  other.join();
  EXPECT_TRUE(seen_on_other_thread.empty());
  EXPECT_EQ(CorrelationScope::Current(), (CorrelationId{7, 70}));
}

TEST(EventJournalTest, AppendAndTailRoundTrip) {
  EventJournal journal(16);
  journal.Append(Decision::kIngest, CorrelationId{1, 5}, "records=100");
  journal.Append(Decision::kSample, CorrelationId{1, -1}, "hits=3 misses=1");

  const std::vector<JournalEvent> tail = journal.Tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].decision, Decision::kIngest);
  EXPECT_EQ(tail[0].corr, (CorrelationId{1, 5}));
  EXPECT_STREQ(tail[0].detail, "records=100");
  EXPECT_EQ(tail[1].decision, Decision::kSample);
  EXPECT_GE(tail[1].timestamp_us, tail[0].timestamp_us);
  EXPECT_EQ(journal.TotalAppended(), 2u);
  EXPECT_EQ(journal.TotalDropped(), 0u);
}

TEST(EventJournalTest, PicksUpCorrelationScope) {
  // A decision recorded under a scope carries the scope's ids, and its
  // journal detail is the declared one followed by the record's `why`.
  EventJournal journal(16);
  {
    CorrelationScope scope(3, 33);
    Record(journal, Decision::kTrainStep, CorrelationScope::Current(),
           "rows=64");
    Record(journal, Decision::kProactiveDeferred, CorrelationScope::Current(),
           "state=overloaded");
  }
  Record(journal, Decision::kStall, CorrelationScope::Current(), "engine");
  const std::vector<JournalEvent> tail = journal.Tail(10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].corr, (CorrelationId{3, 33}));
  EXPECT_STREQ(tail[0].detail, "rows=64");
  EXPECT_EQ(tail[1].decision, Decision::kProactiveDeferred);
  EXPECT_STREQ(tail[1].detail, "proactive_deferred state=overloaded");
  EXPECT_TRUE(tail[2].corr.empty());
  EXPECT_STREQ(tail[2].detail, "engine");
}

TEST(EventJournalTest, WrapDropsOldestWithExactAccounting) {
  EventJournal journal(4);
  for (int i = 0; i < 10; ++i) {
    journal.Append(Decision::kIngest, CorrelationId{1, i}, "");
  }
  EXPECT_EQ(journal.TotalAppended(), 10u);
  EXPECT_EQ(journal.TotalDropped(), 6u);

  const std::vector<JournalEvent> tail = journal.Tail(10);
  ASSERT_EQ(tail.size(), 4u);
  // Newest four survive, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tail[i].corr.entity, 6 + i);
  }
}

TEST(EventJournalTest, TruncatesLongDetail) {
  EventJournal journal(4);
  const std::string long_detail(200, 'd');
  journal.Append(Decision::kIngest, CorrelationId{}, long_detail.c_str());
  const std::vector<JournalEvent> tail = journal.Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(std::strlen(tail[0].detail), sizeof(tail[0].detail) - 1);
}

TEST(EventJournalTest, TailToJsonShape) {
  EventJournal journal(8);
  journal.Append(Decision::kMaterializeMiss, CorrelationId{2, 7},
                 "quote\"back\\slash");
  const std::string json = journal.TailToJson(8);
  EXPECT_EQ(json.rfind("{\"appended\":1,\"dropped\":0,\"capacity\":8,", 0), 0u)
      << json;
  EXPECT_NE(json.find("\"kind\":\"materialize_miss\""), std::string::npos);
  EXPECT_NE(json.find("\"deployment\":2"), std::string::npos);
  EXPECT_NE(json.find("\"entity\":7"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(EventJournalTest, ClearResetsState) {
  EventJournal journal(4);
  for (int i = 0; i < 6; ++i) {
    journal.Append(Decision::kEvictFeatures, CorrelationId{}, "");
  }
  journal.Clear();
  EXPECT_EQ(journal.TotalAppended(), 0u);
  EXPECT_EQ(journal.TotalDropped(), 0u);
  EXPECT_TRUE(journal.Tail(10).empty());
  journal.Append(Decision::kIngest, CorrelationId{}, "fresh");
  EXPECT_EQ(journal.Tail(10).size(), 1u);
}

// Each decision's journal kind, as /events and the log lines print it.
// These strings are what operators grep for: they must not change when the
// decision table is edited.
TEST(EventJournalTest, EventKindNamesAreStable) {
  const std::map<Decision, std::string> kinds = {
      {Decision::kIngest, "ingest"},
      {Decision::kMaterializeHit, "materialize_hit"},
      {Decision::kMaterializeMiss, "materialize_miss"},
      {Decision::kSample, "sample"},
      {Decision::kSampleChunkUnavailable, "degrade"},
      {Decision::kEvictFeatures, "evict"},
      {Decision::kEvictFeaturesLru, "evict"},
      {Decision::kEvictRaw, "evict"},
      {Decision::kEvictRawCorrupt, "evict"},
      {Decision::kSpill, "spill"},
      {Decision::kSpillWriteFailed, "degrade"},
      {Decision::kDiskLoad, "disk_load"},
      {Decision::kPrefetchHit, "prefetch_hit"},
      {Decision::kSpillReadFailed, "degrade"},
      {Decision::kSpillCorruptDropped, "degrade"},
      {Decision::kRecompute, "recompute"},
      {Decision::kRecomputeFallback, "recompute"},
      {Decision::kChunkSkipped, "degrade"},
      {Decision::kTrainStep, "train_step"},
      {Decision::kSgdStepSkipped, "degrade"},
      {Decision::kRetrain, "train_step"},
      {Decision::kRetrainSkipped, "degrade"},
      {Decision::kProactiveDeferred, "degrade"},
      {Decision::kDriftTrigger, "drift_trigger"},
      {Decision::kIngestFailed, "degrade"},
      {Decision::kStoreFeaturesFailed, "degrade"},
      {Decision::kServeEvalFallback, "degrade"},
      {Decision::kDegradedAdmit, "degrade"},
      {Decision::kAdmit, "admit"},
      {Decision::kShedOldest, "shed"},
      {Decision::kShedNewest, "shed"},
      {Decision::kShedTimeout, "shed"},
      {Decision::kPressureChange, "pressure_change"},
      {Decision::kSnapshotPublish, "snapshot_publish"},
      {Decision::kSnapshotSwap, "snapshot_swap"},
      {Decision::kServingShed, "shed"},
      {Decision::kRetry, "retry"},
      {Decision::kRetryExhausted, "retry_exhausted"},
      {Decision::kPlanCompile, "plan_compile"},
      {Decision::kCheckpointSave, "checkpoint"},
      {Decision::kCheckpointLoad, "checkpoint"},
      {Decision::kStall, "stall"},
      {Decision::kRecover, "recover"},
  };
  ASSERT_EQ(kinds.size(), static_cast<size_t>(Decision::kNumDecisions));
  for (const auto& [decision, kind] : kinds) {
    EXPECT_EQ(SpecOf(decision).kind, kind) << static_cast<int>(decision);
  }
}

// Multi-producer correctness: no lost appends, exact drop accounting, and
// per-producer sequence numbers that stay dense and monotonic.  Run under
// TSan in CI.
TEST(EventJournalTest, MultiProducerNoLostUpdates) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  // Large enough that nothing wraps: every append must be retrievable.
  EventJournal journal(kThreads * kPerThread);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append(Decision::kIngest, CorrelationId{1, t}, "mp");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(journal.TotalAppended(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(journal.TotalDropped(), 0u);

  const std::vector<JournalEvent> tail =
      journal.Tail(kThreads * kPerThread);
  ASSERT_EQ(tail.size(), static_cast<size_t>(kThreads * kPerThread));

  // Each producer's sequence numbers are exactly 1..kPerThread.
  std::map<uint32_t, std::vector<uint64_t>> seqs_by_producer;
  for (const JournalEvent& e : tail) {
    seqs_by_producer[e.producer].push_back(e.seq);
  }
  ASSERT_EQ(seqs_by_producer.size(), static_cast<size_t>(kThreads));
  for (auto& [producer, seqs] : seqs_by_producer) {
    ASSERT_EQ(seqs.size(), static_cast<size_t>(kPerThread))
        << "producer " << producer;
    std::sort(seqs.begin(), seqs.end());
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(seqs[i], static_cast<uint64_t>(i + 1))
          << "producer " << producer;
    }
  }
}

TEST(EventJournalTest, MultiProducerWrapKeepsAccountingExact) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  constexpr size_t kCapacity = 64;
  EventJournal journal(kCapacity);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append(Decision::kEvictFeatures, CorrelationId{}, "wrap");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const uint64_t appended = journal.TotalAppended();
  EXPECT_EQ(appended, static_cast<uint64_t>(kThreads * kPerThread));
  // Drop-oldest invariant with no appends in flight: everything not live in
  // the ring was counted as dropped.
  EXPECT_EQ(journal.TotalDropped(), appended - kCapacity);
  EXPECT_EQ(journal.Tail(kCapacity * 2).size(), kCapacity);
}

// Sustained producer overload: a tiny ring wrapped >1000 times by one
// producer.  Drop-oldest must stay exact — the survivors are precisely the
// newest `capacity` events, their sequence numbers a dense suffix with no
// gaps, and everything else is accounted as dropped.
TEST(EventJournalTest, SustainedOverloadManyWrapsKeepsDenseSeqSuffix) {
  constexpr size_t kCapacity = 8;
  constexpr int kAppends = 10000;  // 1250 full wraps
  EventJournal journal(kCapacity);
  for (int i = 0; i < kAppends; ++i) {
    journal.Append(Decision::kIngest, CorrelationId{1, i}, "overload");
  }

  EXPECT_EQ(journal.TotalAppended(), static_cast<uint64_t>(kAppends));
  EXPECT_EQ(journal.TotalDropped(),
            static_cast<uint64_t>(kAppends) - kCapacity);

  const std::vector<JournalEvent> tail = journal.Tail(kCapacity * 2);
  ASSERT_EQ(tail.size(), kCapacity);
  for (size_t i = 0; i < tail.size(); ++i) {
    // Newest kCapacity events, oldest first: seqs (kAppends-7)..kAppends.
    EXPECT_EQ(tail[i].seq, static_cast<uint64_t>(kAppends - kCapacity + 1 + i));
    EXPECT_EQ(tail[i].corr.entity,
              static_cast<int64_t>(kAppends - kCapacity + i));
  }
}

// The multi-producer flavor of the same invariant: because drop-oldest
// removes a prefix of the global append order, each producer's surviving
// sequence numbers must form a contiguous ascending suffix — a gap would
// mean an event was lost without being counted as dropped.
TEST(EventJournalTest, SustainedMultiProducerOverloadHasNoSeqGaps) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  constexpr size_t kCapacity = 32;
  EventJournal journal(kCapacity);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append(Decision::kIngest, CorrelationId{}, "mp-overload");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const uint64_t appended = journal.TotalAppended();
  EXPECT_EQ(appended, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(journal.TotalDropped(), appended - kCapacity);

  const std::vector<JournalEvent> tail = journal.Tail(kCapacity);
  ASSERT_EQ(tail.size(), kCapacity);
  std::map<uint32_t, std::vector<uint64_t>> seqs_by_producer;
  for (const JournalEvent& e : tail) {
    seqs_by_producer[e.producer].push_back(e.seq);
  }
  for (const auto& [producer, seqs] : seqs_by_producer) {
    for (size_t i = 1; i < seqs.size(); ++i) {
      // Tail preserves append order, so per-producer seqs arrive ascending;
      // density (no gap) is the lost-event detector.
      ASSERT_EQ(seqs[i], seqs[i - 1] + 1)
          << "seq gap for producer " << producer;
    }
  }
}

// Readers racing writers: Tail must only ever return fully published
// events (never torn ones) and must not crash or hang.  Run under TSan.
TEST(EventJournalTest, ConcurrentReadersSeeConsistentEvents) {
  EventJournal journal(32);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      journal.Append(Decision::kIngest, CorrelationId{1, i % 97},
                     "payload-with-fixed-text");
      ++i;
    }
  });
  std::thread reader([&] {
    for (int pass = 0; pass < 200; ++pass) {
      for (const JournalEvent& e : journal.Tail(32)) {
        ASSERT_EQ(e.decision, Decision::kIngest);
        ASSERT_EQ(e.corr.deployment, 1u);
        ASSERT_STREQ(e.detail, "payload-with-fixed-text");
      }
    }
  });
  reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace obs
}  // namespace cdpipe

// The fault table for the strategies that train through the shared path
// besides plain continuous: periodical (a retrain over the whole history)
// and continuous with drift bursts.  Both resolve their selection through
// DataManager::Resolve and rebuild evicted chunks through the trainer's
// fan-out, so they must complete every recoverable fault script with the
// fault-free schedule (and, when nothing was lost, the fault-free model),
// journal a recompute or a skip for every miss, and stay bit-identical
// across engine threads and storage tiers.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/decision.h"
#include "src/obs/event_journal.h"
#include "tests/scenarios/scenario_runner.h"

namespace cdpipe {
namespace testing {
namespace {

namespace fs = std::filesystem;
using obs::Decision;
using obs::EventJournal;
using obs::JournalEvent;

class StrategyScenarioTest
    : public ::testing::TestWithParam<ScenarioStrategy> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("cdpipe_strategy_scenario_") +
            ScenarioStrategyName(GetParam()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    EventJournal::Global().Clear();
  }

  /// The probe configuration: 4 engine threads and a 4-chunk feature
  /// cache, so every training step re-materializes on the engine.
  Scenario Probe(std::vector<ScopedFaultScript::SiteRule> faults) const {
    Scenario scenario;
    scenario.name = ScenarioStrategyName(GetParam());
    scenario.strategy = GetParam();
    scenario.engine_threads = 4;
    scenario.store.max_materialized_chunks = 4;
    scenario.faults = std::move(faults);
    return scenario;
  }

  /// Runs `scenario` from a clear journal and checks that its journal
  /// fits the ring and accounts for every sample miss: per chunk, as many
  /// recompute or chunk_skipped events as materialize misses, under the
  /// same correlation id.
  ScenarioResult RunJournaled(const Scenario& scenario) const {
    EventJournal& journal = EventJournal::Global();
    journal.Clear();
    ScenarioResult result = RunScenario(scenario);
    EXPECT_EQ(journal.TotalDropped(), 0u) << "run must fit in the ring";
    std::map<int64_t, int> misses;
    std::map<int64_t, int> resolved;
    for (const JournalEvent& e : journal.Tail(journal.capacity())) {
      const bool miss = e.decision == Decision::kMaterializeMiss;
      const bool rebuilt_or_skipped =
          e.decision == Decision::kRecompute ||
          e.decision == Decision::kRecomputeFallback ||
          e.decision == Decision::kChunkSkipped;
      if (!miss && !rebuilt_or_skipped) continue;
      EXPECT_NE(e.corr.deployment, 0u) << "uncorrelated " << e.detail;
      (miss ? misses : resolved)[e.corr.entity] += 1;
    }
    EXPECT_FALSE(misses.empty()) << "no step re-materialized anything";
    EXPECT_EQ(misses, resolved);
    return result;
  }

  /// What every completed fault script keeps from the fault-free run:
  /// each chunk is processed and each scheduled retrain runs.  (Drift
  /// bursts fire on the model's error, which moves once a step trains on
  /// different data.)
  static void ExpectSameSchedule(const ScenarioResult& clean,
                                 const ScenarioResult& faulted) {
    EXPECT_EQ(faulted.report.chunks_processed, clean.report.chunks_processed);
    EXPECT_EQ(faulted.report.retrainings, clean.report.retrainings);
  }

  /// The same schedule, triggers and final model, with nothing degraded:
  /// what a script whose faults were all absorbed by retries and fallbacks
  /// must reproduce, since it trained on exactly the fault-free data.
  static void ExpectIdenticalRun(const ScenarioResult& expected,
                                 const ScenarioResult& actual) {
    ExpectSameSchedule(expected, actual);
    EXPECT_EQ(actual.report.degraded_events, 0);
    EXPECT_EQ(actual.report.drift_events(), expected.report.drift_events());
    EXPECT_EQ(actual.report.proactive_iterations(),
              expected.report.proactive_iterations());
    EXPECT_EQ(actual.report.final_error, expected.report.final_error);
    ASSERT_FALSE(expected.fingerprint.empty());
    EXPECT_EQ(actual.fingerprint, expected.fingerprint);
  }

  fs::path dir_;
};

TEST_P(StrategyScenarioTest, FaultFreeRunTrainsThroughTheSharedPath) {
  const ScenarioResult clean = RunJournaled(Probe({}));
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.report.chunks_processed, 24);
  EXPECT_EQ(clean.report.degraded_events, 0);
  EXPECT_GT(clean.report.storage.sample_misses, 0);
  EXPECT_GT(clean.report.metrics.CounterValueOr(
                "training.chunks_rematerialized", 0),
            0);
  if (GetParam() == ScenarioStrategy::kPeriodical) {
    EXPECT_EQ(clean.report.retrainings, 4);
    EXPECT_EQ(clean.report.proactive_iterations(), 0);
  } else {
    EXPECT_GT(clean.report.drift_events(), 0) << "the detector never fired";
  }
}

TEST_P(StrategyScenarioTest, FlakyEngineCompletesWithFaultFreeCounts) {
  const ScenarioResult clean = RunScenario(Probe({}));
  const ScenarioResult result = RunJournaled(
      Probe({{"engine.task", FaultRule::Probability(0.3, 71)}}));
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.faults_injected(), 0);
  EXPECT_GT(result.report.retry_attempts(), 0);
  ExpectIdenticalRun(clean, result);
}

TEST_P(StrategyScenarioTest, ThrowingTasksAreContained) {
  FaultRule thrower = FaultRule::FirstN(3);
  thrower.throws = true;
  thrower.message = "task exploded";
  const ScenarioResult clean = RunScenario(Probe({}));
  const ScenarioResult result =
      RunJournaled(Probe({{"engine.task", thrower}}));
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  // Exceptions become Internal (non-retryable); the serial fallback
  // recomputes the affected chunks and the run completes.
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.faults_injected(), 3);
  ExpectIdenticalRun(clean, result);
}

TEST_P(StrategyScenarioTest, RematerializationHiccupsComplete) {
  // A chunk that meets six faults in a row (three engine attempts, three
  // fallback attempts) is skipped; the run goes on either way.
  const ScenarioResult clean = RunScenario(Probe({}));
  const ScenarioResult result = RunJournaled(
      Probe({{"pipeline.rematerialize", FaultRule::FirstN(8)}}));
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.faults_injected(), 8);
  ExpectSameSchedule(clean, result);
}

TEST_P(StrategyScenarioTest, EvictHeavyCompletesWithHonestMuAccounting) {
  // Forced evictions at resolution move picks from the hit to the miss
  // side; the rebuilt chunks carry today's statistics instead of the ones
  // they were materialized with, but none is lost.
  const ScenarioResult clean = RunScenario(Probe({}));
  const ScenarioResult result = RunJournaled(Probe(
      {{"chunk_store.forced_eviction", FaultRule::Probability(0.5, 17)}}));
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.faults_injected(), 0);
  EXPECT_GT(result.report.storage.sample_misses,
            clean.report.storage.sample_misses);
  EXPECT_EQ(result.report.training_chunks_skipped(), 0);
  ExpectSameSchedule(clean, result);
}

TEST_P(StrategyScenarioTest, PermanentRematerializationOutageDegrades) {
  // No evicted chunk can be rebuilt: every step trains on its materialized
  // chunks only, and each dropped chunk is a degraded event.
  const ScenarioResult result = RunJournaled(
      Probe({{"pipeline.rematerialize", FaultRule::Probability(1.0, 5)}}));
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.chunks_processed, 24);
  EXPECT_GT(result.report.training_chunks_skipped(), 0);
  EXPECT_GT(result.report.degraded_events, 0);
  EXPECT_EQ(result.report.metrics.CounterValueOr(
                "training.chunks_rematerialized", 0),
            0);
}

TEST_P(StrategyScenarioTest, RangeTaskFaultIsRetriedToTheFaultFreeModel) {
  // Sampling every chunk makes the last proactive step span two gradient
  // shards; the periodical default already does for its last retrain.  The
  // one sharded step that hits the fault is retried from scratch.
  Scenario clean_scenario = Probe({});
  clean_scenario.sample_chunks = 24;
  Scenario faulted = clean_scenario;
  faulted.faults = {{"engine.range_task", FaultRule::FirstN(1)}};
  const ScenarioResult clean = RunScenario(clean_scenario);
  const ScenarioResult result = RunScenario(faulted);
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.faults_injected(), 1);
  EXPECT_EQ(result.report.retry_attempts(), 1);
  EXPECT_EQ(result.report.retries_exhausted(), 0);
  ExpectIdenticalRun(clean, result);
}

TEST_P(StrategyScenarioTest, RangeTaskOutageSkipsTheShardedStepOnly) {
  // Every sharded gradient fails, so the one step that spans two shards
  // exhausts its retries and is skipped; the deployed model stays and the
  // run goes on.
  Scenario clean_scenario = Probe({});
  clean_scenario.sample_chunks = 24;
  Scenario faulted = clean_scenario;
  faulted.faults = {{"engine.range_task", FaultRule::Probability(1.0, 9)}};
  const ScenarioResult clean = RunScenario(clean_scenario);
  const ScenarioResult result = RunJournaled(faulted);
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.retries_exhausted(), 1);
  EXPECT_EQ(result.report.metrics.CounterValueOr(
                "training.iterations_degraded", 0),
            1);
  EXPECT_EQ(result.report.degraded_events, 1);
  EXPECT_EQ(result.report.chunks_processed, clean.report.chunks_processed);
  if (GetParam() == ScenarioStrategy::kPeriodical) {
    EXPECT_EQ(result.report.retrainings, clean.report.retrainings - 1);
  }
  // The skipped step trained no rows: `proactive.rows_trained` counts the
  // applied steps only, exactly the rows their train_step events journal.
  int64_t journaled_rows = 0;
  for (const JournalEvent& e :
       EventJournal::Global().Tail(EventJournal::Global().capacity())) {
    if (e.decision == Decision::kTrainStep &&
        std::string(e.detail).rfind("rows=", 0) == 0) {
      journaled_rows += std::stoll(e.detail + 5);
    }
  }
  if (GetParam() == ScenarioStrategy::kDrift) {
    EXPECT_GT(journaled_rows, 0);
  }
  EXPECT_EQ(result.report.metrics.CounterValueOr("proactive.rows_trained", 0),
            journaled_rows);
}

TEST_P(StrategyScenarioTest, ThreadCountDoesNotChangeResults) {
  Scenario serial = Probe({});
  serial.arm_injector = false;
  serial.engine_threads = 1;
  Scenario pooled = serial;
  pooled.engine_threads = 4;
  const ScenarioResult a = RunScenario(serial);
  const ScenarioResult b = RunScenario(pooled);
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();
  EXPECT_EQ(a.report.storage.sample_misses, b.report.storage.sample_misses);
  ExpectIdenticalRun(a, b);
}

TEST_P(StrategyScenarioTest, SpillingIsBitIdenticalToRamOnly) {
  Scenario ram_only = Probe({});
  ram_only.arm_injector = false;
  Scenario spilled = ram_only;
  size_t raw_bytes = 0;
  for (const RawChunk& chunk : MakeScenarioStream(spilled.num_chunks)) {
    raw_bytes += chunk.ByteSize();
  }
  spilled.store.memory_budget_bytes = raw_bytes / 4;
  spilled.store.spill_dir = dir_.string();
  const ScenarioResult a = RunScenario(ram_only);
  const ScenarioResult b = RunScenario(spilled);
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();
  EXPECT_GT(b.report.storage.chunks_spilled, 0);
  EXPECT_GT(b.report.storage.disk_loads + b.report.storage.prefetch_hits, 0);
  EXPECT_EQ(a.report.storage.sample_misses, b.report.storage.sample_misses);
  ExpectIdenticalRun(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StrategyScenarioTest,
    ::testing::Values(ScenarioStrategy::kPeriodical, ScenarioStrategy::kDrift),
    [](const ::testing::TestParamInfo<ScenarioStrategy>& info) {
      return std::string(ScenarioStrategyName(info.param));
    });

}  // namespace
}  // namespace testing
}  // namespace cdpipe

// Scenario-driven end-to-end tests: the full continuous deployment loop
// runs under seeded fault scripts and must (a) complete, (b) account for
// every injected fault, retry, and degradation in its DeploymentReport, and
// (c) — for the fault-free control — produce bit-identical results to the
// completely uninstrumented path.

#include <gtest/gtest.h>

#include <sstream>

#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"
#include "tests/scenarios/scenario_runner.h"

namespace cdpipe {
namespace testing {
namespace {

TEST(ScenarioTest, FaultFreeControlIsBitIdenticalToUninstrumented) {
  Scenario uninstrumented;
  uninstrumented.name = "uninstrumented";
  uninstrumented.arm_injector = false;

  Scenario control;
  control.name = "fault-free-control";
  control.arm_injector = true;  // enabled injector, no rule ever fires

  const ScenarioResult baseline = RunScenario(uninstrumented);
  const ScenarioResult inert = RunScenario(control);
  ASSERT_TRUE(baseline.ok()) << baseline.status.ToString();
  ASSERT_TRUE(inert.ok()) << inert.status.ToString();

  // Arming the injector must not perturb a single bit of the numerics.
  EXPECT_EQ(baseline.fingerprint, inert.fingerprint);
  EXPECT_EQ(baseline.report.final_error, inert.report.final_error);
  EXPECT_EQ(baseline.report.curve.back().observations,
            inert.report.curve.back().observations);
  EXPECT_EQ(inert.report.faults_injected(), 0);
  EXPECT_EQ(inert.report.retry_attempts(), 0);
  EXPECT_EQ(inert.report.degraded_events, 0);
}

TEST(ScenarioTest, FlakyEngineCompletesWithFaultAccounting) {
  Scenario scenario;
  scenario.name = "flaky-engine";
  scenario.engine_threads = 4;
  scenario.store.max_materialized_chunks = 4;  // force re-materialization
  scenario.faults = {
      {"engine.task", FaultRule::Probability(0.3, 71)},
  };

  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.chunks_processed,
            static_cast<int64_t>(Scenario{}.num_chunks));
  EXPECT_GT(result.report.faults_injected(), 0);
  // Transient task faults are absorbed by the engine's retry policy (and,
  // past exhaustion, by the trainer's serial fallback) — never an abort.
  EXPECT_GT(result.report.retry_attempts(), 0);
  EXPECT_GT(result.report.proactive_iterations(), 0);
}

TEST(ScenarioTest, ThrowingTasksAreContained) {
  Scenario scenario;
  scenario.name = "throwing-tasks";
  scenario.engine_threads = 4;
  scenario.store.max_materialized_chunks = 4;
  FaultRule thrower = FaultRule::FirstN(3);
  thrower.throws = true;
  thrower.message = "task exploded";
  scenario.faults = {{"engine.task", thrower}};

  const ScenarioResult result = RunScenario(scenario);
  // Exceptions become Internal (non-retryable); the serial fallback
  // recomputes the affected chunks and the run completes.
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GE(result.report.faults_injected(), 3);
}

TEST(ScenarioTest, EvictHeavyCompletesWithHonestMuAccounting) {
  Scenario scenario;
  scenario.name = "evict-heavy";
  scenario.store.max_materialized_chunks = 4;
  scenario.faults = {
      {"chunk_store.forced_eviction", FaultRule::Probability(0.5, 17)},
  };

  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.faults_injected(), 0);
  // Forced evictions surface as sample misses and re-materializations.
  EXPECT_GT(result.report.storage.sample_misses, 0);
  EXPECT_LT(result.report.empirical_mu, 1.0);
  EXPECT_GT(
      result.report.metrics.CounterValueOr("training.chunks_rematerialized",
                                           0),
      0);
  EXPECT_EQ(result.report.training_chunks_skipped(), 0);  // all recovered
}

TEST(ScenarioTest, IngestHiccupRecoversViaRetry) {
  Scenario scenario;
  scenario.name = "ingest-hiccup";
  scenario.faults = {
      {"chunk_store.put_raw", FaultRule::FirstN(2)},
  };

  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  // Two injected failures, both absorbed by retries: every chunk lands in
  // the store and nothing degrades.
  EXPECT_EQ(result.report.faults_injected(), 2);
  EXPECT_GE(result.report.retry_attempts(), 2);
  EXPECT_EQ(result.report.retries_exhausted(), 0);
  EXPECT_EQ(result.report.degraded_events, 0);
  EXPECT_EQ(result.report.storage.raw_inserted,
            static_cast<int64_t>(Scenario{}.num_chunks));
}

TEST(ScenarioTest, PersistentIngestFailureDegradesInsteadOfAborting) {
  Scenario scenario;
  scenario.name = "ingest-outage";
  // First 6 PutRaw calls fail: the first chunk's retries (3 attempts)
  // exhaust, the deployment processes it without storage and moves on.
  scenario.faults = {
      {"chunk_store.put_raw", FaultRule::FirstN(6)},
  };

  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.retries_exhausted(), 0);
  EXPECT_GT(result.report.degraded_events, 0);
  // Quality curve stayed continuous: every chunk contributed observations.
  EXPECT_EQ(result.report.chunks_processed,
            static_cast<int64_t>(Scenario{}.num_chunks));
  EXPECT_GT(result.report.curve.back().observations, 0);
  // The degraded chunks are missing from storage.
  EXPECT_LT(result.report.storage.raw_inserted,
            static_cast<int64_t>(Scenario{}.num_chunks));
}

TEST(ScenarioTest, StoreFeaturesFailureLeavesChunkRecoverable) {
  Scenario scenario;
  scenario.name = "materialization-outage";
  scenario.store.max_materialized_chunks = 8;
  scenario.faults = {
      {"chunk_store.put_features", FaultRule::Probability(0.4, 23)},
  };

  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.degraded_events, 0);
  EXPECT_GT(
      result.report.metrics.CounterValueOr("deployment.store_features_failed",
                                           0),
      0);
  // Unmaterialized chunks are recovered on demand by dynamic
  // materialization when proactive training samples them.
  EXPECT_GT(result.report.proactive_iterations(), 0);
}

TEST(ScenarioTest, SlowTasksPerturbSchedulingNotResults) {
  Scenario baseline;
  baseline.name = "uninstrumented-4t";
  baseline.arm_injector = false;
  baseline.engine_threads = 4;
  baseline.store.max_materialized_chunks = 4;

  Scenario slow;
  slow.name = "slow-tasks";
  slow.engine_threads = 4;
  slow.store.max_materialized_chunks = 4;
  FaultRule delay = FaultRule::EveryN(3);
  delay.delay_seconds = 0.002;
  slow.faults = {{"engine.slow_task", delay}};

  const ScenarioResult fast = RunScenario(baseline);
  const ScenarioResult delayed = RunScenario(slow);
  ASSERT_TRUE(fast.ok()) << fast.status.ToString();
  ASSERT_TRUE(delayed.ok()) << delayed.status.ToString();
  // Injected latency reorders worker scheduling but must not change a
  // single bit of the result (slot-indexed writes, fixed-order merges).
  EXPECT_EQ(fast.fingerprint, delayed.fingerprint);
  EXPECT_GT(delayed.report.faults_injected(), 0);
}

TEST(ScenarioTest, ShortReadsShrinkTheStreamNotTheRun) {
  Scenario control;
  control.name = "uninstrumented";
  control.arm_injector = false;

  Scenario short_reads;
  short_reads.name = "short-reads";
  short_reads.faults = {
      {"url_stream.short_read", FaultRule::EveryN(4)},
  };

  const ScenarioResult full = RunScenario(control);
  const ScenarioResult truncated = RunScenario(short_reads);
  ASSERT_TRUE(full.ok()) << full.status.ToString();
  ASSERT_TRUE(truncated.ok()) << truncated.status.ToString();
  EXPECT_EQ(truncated.report.chunks_processed, full.report.chunks_processed);
  EXPECT_LT(truncated.report.curve.back().observations,
            full.report.curve.back().observations);
}

TEST(ScenarioTest, CorruptCheckpointLoadFailsCleanlyThenRecovers) {
  // Run a healthy deployment, checkpoint it, then script the load fault:
  // the first load attempt fails with the injected error, state stays
  // untouched, and a retry succeeds once the outage clears.
  Scenario scenario;
  scenario.name = "uninstrumented";
  scenario.arm_injector = false;
  const ScenarioResult healthy = RunScenario(scenario);
  ASSERT_TRUE(healthy.ok()) << healthy.status.ToString();

  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 7;
  CostModel cost;
  PipelineManager manager(
      MakeUrlPipeline(config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.01}),
      &cost);
  const std::vector<double> weights_before = manager.model().weights().values();

  ScopedFaultScript script({{"checkpoint.load", FaultRule::FirstN(1)}});
  std::istringstream first_attempt(healthy.fingerprint);
  const Status failed = LoadCheckpoint(&first_attempt, &manager);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager.model().weights().values(), weights_before);

  // The site recovered (FirstN(1) fired); retry with the same bytes.
  const Status retried = RetryWithBackoff(
      RetryPolicy{}, "checkpoint.load", [&]() -> Status {
        std::istringstream attempt(healthy.fingerprint);
        return LoadCheckpoint(&attempt, &manager);
      });
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_NE(manager.model().weights().values(), weights_before);
}

}  // namespace
}  // namespace testing
}  // namespace cdpipe

// Golden determinism: two end-to-end runs with the same seed must produce
// byte-identical serialized models and identical report metrics — across
// repeated runs and across engine thread counts (1 vs 4).  This is the
// property that makes the fault-free control in scenario_test meaningful.

#include <gtest/gtest.h>

#include "tests/scenarios/scenario_runner.h"

namespace cdpipe {
namespace testing {
namespace {

Scenario BaseScenario(size_t threads) {
  Scenario scenario;
  scenario.name = "determinism";
  scenario.arm_injector = false;
  scenario.engine_threads = threads;
  // A bounded cache forces the parallel re-materialization fan-out, the
  // most scheduling-sensitive code path.
  scenario.store.max_materialized_chunks = 4;
  return scenario;
}

void ExpectIdenticalReports(const DeploymentReport& a,
                            const DeploymentReport& b) {
  EXPECT_EQ(a.final_error, b.final_error);
  EXPECT_EQ(a.average_error(), b.average_error());
  EXPECT_EQ(a.chunks_processed, b.chunks_processed);
  EXPECT_EQ(a.proactive_iterations(), b.proactive_iterations());
  EXPECT_EQ(a.storage.raw_inserted, b.storage.raw_inserted);
  EXPECT_EQ(a.storage.memory_hits, b.storage.memory_hits);
  EXPECT_EQ(a.storage.disk_hits, b.storage.disk_hits);
  EXPECT_EQ(a.storage.sample_misses, b.storage.sample_misses);
  EXPECT_EQ(a.empirical_mu, b.empirical_mu);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].observations, b.curve[i].observations);
    EXPECT_EQ(a.curve[i].cumulative_error, b.curve[i].cumulative_error);
    EXPECT_EQ(a.curve[i].windowed_error, b.curve[i].windowed_error);
  }
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  const ScenarioResult first = RunScenario(BaseScenario(1));
  const ScenarioResult second = RunScenario(BaseScenario(1));
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  ASSERT_FALSE(first.fingerprint.empty());
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  ExpectIdenticalReports(first.report, second.report);
}

TEST(DeterminismTest, ThreadCountDoesNotChangeResults) {
  const ScenarioResult serial = RunScenario(BaseScenario(1));
  const ScenarioResult pooled = RunScenario(BaseScenario(4));
  ASSERT_TRUE(serial.ok()) << serial.status.ToString();
  ASSERT_TRUE(pooled.ok()) << pooled.status.ToString();
  EXPECT_EQ(serial.fingerprint, pooled.fingerprint);
  ExpectIdenticalReports(serial.report, pooled.report);
}

TEST(DeterminismTest, RepeatedPooledRunsAreByteIdentical) {
  const ScenarioResult first = RunScenario(BaseScenario(4));
  const ScenarioResult second = RunScenario(BaseScenario(4));
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_EQ(first.fingerprint, second.fingerprint);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the fingerprint actually discriminates: a different
  // deployment seed reorders sampling and must change the trained model.
  Scenario other = BaseScenario(1);
  other.seed = 4;
  const ScenarioResult a = RunScenario(BaseScenario(1));
  const ScenarioResult b = RunScenario(other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(DeterminismTest, FaultFreeScriptedRunMatchesAcrossThreadCounts) {
  // The armed-but-inert control stays deterministic under threading too.
  Scenario inert1 = BaseScenario(1);
  inert1.arm_injector = true;
  Scenario inert4 = BaseScenario(4);
  inert4.arm_injector = true;
  const ScenarioResult a = RunScenario(inert1);
  const ScenarioResult b = RunScenario(inert4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.report.faults_injected(), 0);
  EXPECT_EQ(b.report.faults_injected(), 0);
}

}  // namespace
}  // namespace testing
}  // namespace cdpipe

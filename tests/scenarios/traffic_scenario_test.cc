// Traffic-shape stress scenarios: the full continuous deployment loop runs
// behind a bounded AdmissionController while the stream's arrival times are
// rewritten into adversarial shapes (flash crowds, sustained overload,
// diurnal swings).  Because admission runs on virtual time derived from the
// arrival timestamps, every shed/degrade decision is a pure function of
// (traffic config, admission options) — the assertions below are exact, not
// statistical, and must replay identically at any engine thread count and
// under any absorbed fault script.

#include <gtest/gtest.h>

#include "tests/scenarios/scenario_runner.h"

namespace cdpipe {
namespace testing {
namespace {

/// Sustained 3x overload behind a small degrade-policy queue: the canonical
/// "pressure that never lets up" scenario, reused by several tests below.
Scenario SustainedDegradeScenario() {
  Scenario scenario;
  scenario.name = "sustained-degrade";
  scenario.shaped = true;
  scenario.attach_serving = true;  // staleness gating needs a publisher
  scenario.traffic.shape = TrafficShape::kSustainedOverload;
  scenario.traffic.base_period_seconds = 60.0;
  scenario.traffic.overload_factor = 3.0;  // arrivals every 20s
  scenario.admission.queue_capacity = 4;
  scenario.admission.high_watermark = 3;
  scenario.admission.low_watermark = 1;
  scenario.admission.policy = AdmissionPolicy::kDegrade;
  scenario.admission.service_seconds_per_chunk = 30.0;
  scenario.publish_staleness_bound_chunks = 2;
  return scenario;
}

/// RunShaped checks these identities itself before returning; the test
/// states them independently of that check.
void ExpectAdmissionIdentities(const DeploymentReport& report) {
  // Every offered chunk is accounted for exactly once.
  EXPECT_EQ(report.ingest.offered,
            report.ingest.admitted + report.ingest.shed_newest +
                report.ingest.shed_timeout);
  // Admitted chunks either reach the training loop or are displaced by a
  // later arrival (shed-oldest) — nothing is silently lost.
  EXPECT_EQ(report.chunks_processed,
            report.ingest.admitted - report.ingest.shed_oldest);
}

TEST(TrafficScenarioTest, UniformShapeWithHeadroomIsBitIdenticalToRun) {
  // The fault-free, overload-free control: uniform arrivals with ample
  // queue headroom must traverse the admission layer without a single
  // shed, degrade, or publish deferral — and produce bit-identical state
  // to the plain Deployment::Run path.
  Scenario plain;
  plain.name = "unshaped-baseline";

  Scenario shaped = plain;
  shaped.name = "uniform-control";
  shaped.shaped = true;
  shaped.traffic.shape = TrafficShape::kUniform;
  shaped.traffic.base_period_seconds = 60.0;
  shaped.admission.queue_capacity = 8;
  shaped.admission.service_seconds_per_chunk = 1.0;  // drains long before
                                                     // the next arrival

  const ScenarioResult baseline = RunScenario(plain);
  const ScenarioResult control = RunScenario(shaped);
  ASSERT_TRUE(baseline.ok()) << baseline.status.ToString();
  ASSERT_TRUE(control.ok()) << control.status.ToString();

  EXPECT_EQ(baseline.fingerprint, control.fingerprint);
  EXPECT_EQ(baseline.report.final_error, control.report.final_error);
  EXPECT_EQ(baseline.report.chunks_processed,
            control.report.chunks_processed);

  EXPECT_EQ(control.report.ingest.offered,
            static_cast<int64_t>(Scenario{}.num_chunks));
  EXPECT_EQ(control.report.ingest.admitted, control.report.ingest.offered);
  EXPECT_EQ(control.report.ingest.shed(), 0);
  EXPECT_EQ(control.report.ingest.degraded_admits, 0);
  EXPECT_EQ(control.report.publish_skipped_overload, 0);
  EXPECT_EQ(control.report.max_snapshot_staleness_chunks, 0);
  EXPECT_EQ(control.report.proactive_deferred(), 0);
  EXPECT_EQ(control.report.ingest.peak_queue_depth, 1);
  ExpectAdmissionIdentities(control.report);
}

TEST(TrafficScenarioTest, FlashCrowdShedsExactlyAndReplaysAcrossThreads) {
  Scenario scenario;
  scenario.name = "flash-crowd";
  scenario.shaped = true;
  scenario.traffic.shape = TrafficShape::kFlashCrowd;
  scenario.traffic.base_period_seconds = 60.0;
  scenario.traffic.burst_every = 8;
  scenario.traffic.burst_length = 4;
  scenario.traffic.burst_factor = 6.0;  // in-burst arrivals every 10s
  scenario.admission.queue_capacity = 3;
  scenario.admission.policy = AdmissionPolicy::kShedNewest;
  scenario.admission.service_seconds_per_chunk = 50.0;

  const ScenarioResult serial = RunScenario(scenario);
  ASSERT_TRUE(serial.ok()) << serial.status.ToString();

  // Each burst overwhelms the 3-deep queue; the sheds land on exact chunk
  // positions decided purely by virtual time.  (Hand-simulated: 6 of the
  // 24 arrivals are shed.)
  EXPECT_EQ(serial.report.ingest.shed(), 6);
  EXPECT_EQ(serial.report.ingest.shed_newest, 6);
  EXPECT_EQ(serial.report.ingest.admitted, 18);
  EXPECT_EQ(serial.report.chunks_processed, 18);
  EXPECT_LE(serial.report.ingest.peak_queue_depth,
            static_cast<int64_t>(scenario.admission.queue_capacity));
  ExpectAdmissionIdentities(serial.report);

  // Same scenario on a 4-thread engine: admission decisions live on
  // virtual time, so the counts — and the final deployed state — replay
  // bit-identically.
  Scenario pooled = scenario;
  pooled.engine_threads = 4;
  const ScenarioResult threaded = RunScenario(pooled);
  ASSERT_TRUE(threaded.ok()) << threaded.status.ToString();
  EXPECT_EQ(threaded.report.ingest.shed(), serial.report.ingest.shed());
  EXPECT_EQ(threaded.report.ingest.admitted, serial.report.ingest.admitted);
  EXPECT_EQ(threaded.report.ingest.degraded_admits,
            serial.report.ingest.degraded_admits);
  EXPECT_EQ(threaded.report.ingest.pressure_changes,
            serial.report.ingest.pressure_changes);
  EXPECT_EQ(threaded.fingerprint, serial.fingerprint);
}

TEST(TrafficScenarioTest, SustainedOverloadDegradesWithinStalenessBound) {
  const Scenario scenario = SustainedDegradeScenario();
  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  // Under 1.5x sustained service overload the degrade policy keeps
  // admitting (flagged) instead of stalling, and capacity stays a hard
  // memory bound.
  EXPECT_GT(result.report.ingest.degraded_admits, 0);
  EXPECT_GT(result.report.ingest.shed_newest, 0);
  EXPECT_EQ(result.report.ingest.shed_oldest, 0);
  EXPECT_EQ(result.report.ingest.peak_queue_depth,
            static_cast<int64_t>(scenario.admission.queue_capacity));
  ExpectAdmissionIdentities(result.report);

  // Overload slows the publish cadence but never past the configured
  // bound: the served snapshot is at most K-1 chunks behind.
  EXPECT_GT(result.report.publish_skipped_overload, 0);
  EXPECT_GT(result.report.max_snapshot_staleness_chunks, 0);
  EXPECT_LT(result.report.max_snapshot_staleness_chunks,
            static_cast<int64_t>(scenario.publish_staleness_bound_chunks));

  // Proactive training yields while the ingest queue is hot.
  EXPECT_GT(result.report.proactive_deferred(), 0);
  EXPECT_EQ(result.report.metrics.CounterValueOr(
                "proactive.iterations_deferred", 0),
            result.report.proactive_deferred());
}

TEST(TrafficScenarioTest, DiurnalSwingEntersAndLeavesOverload) {
  Scenario scenario;
  scenario.name = "diurnal";
  scenario.shaped = true;
  scenario.traffic.shape = TrafficShape::kDiurnal;
  scenario.traffic.base_period_seconds = 60.0;
  scenario.traffic.diurnal_amplitude = 3.0;    // peak arrivals every 15s
  scenario.traffic.diurnal_period_chunks = 12; // two "days" in 24 chunks
  scenario.admission.queue_capacity = 4;
  scenario.admission.high_watermark = 3;
  scenario.admission.low_watermark = 1;
  scenario.admission.policy = AdmissionPolicy::kShedNewest;
  scenario.admission.service_seconds_per_chunk = 25.0;

  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  // The daily peak drives the queue over the high watermark; the trough
  // drains it back under the low one — at least one full
  // normal -> overloaded -> normal round trip, i.e. >= 2 transitions.
  EXPECT_GE(result.report.ingest.pressure_changes, 2);
  EXPECT_LE(result.report.ingest.peak_queue_depth,
            static_cast<int64_t>(scenario.admission.queue_capacity));
  ExpectAdmissionIdentities(result.report);

  // A second replay is exact, transition counts included.
  const ScenarioResult replay = RunScenario(scenario);
  ASSERT_TRUE(replay.ok()) << replay.status.ToString();
  EXPECT_EQ(replay.report.ingest.pressure_changes,
            result.report.ingest.pressure_changes);
  EXPECT_EQ(replay.report.ingest.shed(), result.report.ingest.shed());
  EXPECT_EQ(replay.fingerprint, result.fingerprint);
}

TEST(TrafficScenarioTest, BlockPolicyTradesLatencyForCompleteness) {
  Scenario scenario;
  scenario.name = "block-generous-timeout";
  scenario.shaped = true;
  scenario.traffic.shape = TrafficShape::kSustainedOverload;
  scenario.traffic.base_period_seconds = 60.0;
  scenario.traffic.overload_factor = 3.0;
  scenario.admission.queue_capacity = 2;
  scenario.admission.policy = AdmissionPolicy::kBlock;
  scenario.admission.service_seconds_per_chunk = 30.0;
  scenario.admission.block_timeout_seconds = 1e6;

  // A producer willing to wait forever loses nothing: backpressure stalls
  // the (virtual) reader instead of dropping data.
  const ScenarioResult patient = RunScenario(scenario);
  ASSERT_TRUE(patient.ok()) << patient.status.ToString();
  EXPECT_EQ(patient.report.ingest.shed(), 0);
  EXPECT_EQ(patient.report.chunks_processed,
            static_cast<int64_t>(Scenario{}.num_chunks));
  ExpectAdmissionIdentities(patient.report);

  // The same shape with a tight deadline sheds at the block site instead,
  // and the timeout sheds are exact and replayable.
  Scenario impatient = scenario;
  impatient.name = "block-tight-timeout";
  impatient.admission.block_timeout_seconds = 1.0;
  const ScenarioResult first = RunScenario(impatient);
  const ScenarioResult second = RunScenario(impatient);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_GT(first.report.ingest.shed_timeout, 0);
  EXPECT_EQ(first.report.ingest.shed(), first.report.ingest.shed_timeout);
  EXPECT_EQ(first.report.chunks_processed,
            static_cast<int64_t>(Scenario{}.num_chunks) -
                first.report.ingest.shed_timeout);
  ExpectAdmissionIdentities(first.report);
  EXPECT_EQ(second.report.ingest.shed_timeout,
            first.report.ingest.shed_timeout);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
}

TEST(TrafficScenarioTest, AbsorbedFaultsDoNotPerturbAdmissionDecisions) {
  // Admission runs on virtual time, so wall-clock noise from fault
  // retries must not move a single shed or degrade decision.
  const Scenario clean = SustainedDegradeScenario();

  Scenario faulted = clean;
  faulted.name = "sustained-degrade-faulted";
  faulted.faults = {
      {"chunk_store.put_raw", FaultRule::FirstN(2)},
  };

  const ScenarioResult a = RunScenario(clean);
  const ScenarioResult b = RunScenario(faulted);
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();

  EXPECT_EQ(b.report.faults_injected(), 2);
  EXPECT_GE(b.report.retry_attempts(), 2);
  EXPECT_EQ(b.report.retries_exhausted(), 0);

  EXPECT_EQ(b.report.ingest.offered, a.report.ingest.offered);
  EXPECT_EQ(b.report.ingest.admitted, a.report.ingest.admitted);
  EXPECT_EQ(b.report.ingest.shed(), a.report.ingest.shed());
  EXPECT_EQ(b.report.ingest.shed_newest, a.report.ingest.shed_newest);
  EXPECT_EQ(b.report.ingest.degraded_admits, a.report.ingest.degraded_admits);
  EXPECT_EQ(b.report.ingest.pressure_changes,
            a.report.ingest.pressure_changes);
  EXPECT_EQ(b.report.max_snapshot_staleness_chunks,
            a.report.max_snapshot_staleness_chunks);
  // Absorbed faults leave the numerics bit-identical too.
  EXPECT_EQ(b.fingerprint, a.fingerprint);
}

TEST(TrafficScenarioTest, ExhaustedRetriesDegradeWithoutMovingShedCounts) {
  // Retry exhaustion and admission shedding are independent safety
  // valves: a persistently failing store degrades chunks (the retry
  // path), while the admission counters — driven by virtual time alone —
  // stay exactly where the clean run put them.
  const Scenario clean = SustainedDegradeScenario();

  Scenario broken = clean;
  broken.name = "sustained-degrade-store-down";
  broken.retry.initial_backoff_seconds = 0.0;  // don't sleep through 24 chunks
  // Six straight PutRaw failures: two chunks' 3-attempt budgets exhaust and
  // those chunks degrade; later chunks land so proactive sampling survives.
  broken.faults = {
      {"chunk_store.put_raw", FaultRule::FirstN(6)},
  };

  const ScenarioResult a = RunScenario(clean);
  const ScenarioResult b = RunScenario(broken);
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();

  EXPECT_GT(b.report.retries_exhausted(), 0);
  EXPECT_GT(b.report.degraded_events, 0);

  EXPECT_EQ(b.report.ingest.offered, a.report.ingest.offered);
  EXPECT_EQ(b.report.ingest.admitted, a.report.ingest.admitted);
  EXPECT_EQ(b.report.ingest.shed(), a.report.ingest.shed());
  EXPECT_EQ(b.report.ingest.degraded_admits, a.report.ingest.degraded_admits);
  EXPECT_EQ(b.report.chunks_processed, a.report.chunks_processed);
  ExpectAdmissionIdentities(b.report);
}

TEST(TrafficScenarioTest, ShedOldestPrefersFreshDataUnderBacklog) {
  Scenario scenario;
  scenario.name = "shed-oldest";
  scenario.shaped = true;
  scenario.traffic.shape = TrafficShape::kSustainedOverload;
  scenario.traffic.base_period_seconds = 60.0;
  scenario.traffic.overload_factor = 4.0;  // arrivals every 15s
  scenario.admission.queue_capacity = 3;
  scenario.admission.policy = AdmissionPolicy::kShedOldest;
  scenario.admission.service_seconds_per_chunk = 45.0;

  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  // Every arrival is admitted — the queue head (stalest backlog) pays.
  EXPECT_EQ(result.report.ingest.admitted,
            static_cast<int64_t>(Scenario{}.num_chunks));
  EXPECT_GT(result.report.ingest.shed_oldest, 0);
  EXPECT_EQ(result.report.ingest.shed_newest, 0);
  EXPECT_EQ(result.report.chunks_processed,
            result.report.ingest.admitted - result.report.ingest.shed_oldest);
  ExpectAdmissionIdentities(result.report);
}

}  // namespace
}  // namespace testing
}  // namespace cdpipe

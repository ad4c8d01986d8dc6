// End-to-end scenarios for the two-tier chunk store: a spilling deployment
// must be bit-identical to the RAM-only control (spilling changes where
// bytes live, never what is computed), degrade cleanly under injected
// spill-write failures, survive corrupt spill files with exact drop
// accounting, contain prefetch exceptions, and count every staged read of
// a run in that run's report.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/data/url_stream.h"
#include "src/ml/optimizer.h"
#include "tests/scenarios/scenario_runner.h"

namespace cdpipe {
namespace testing {
namespace {

namespace fs = std::filesystem;

size_t StreamRawBytes(size_t num_chunks) {
  const std::vector<RawChunk> stream = MakeScenarioStream(num_chunks);
  size_t total = 0;
  for (const RawChunk& chunk : stream) total += chunk.ByteSize();
  return total;
}

class SpillScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdpipe_spill_scenario_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// The acceptance-bar budget: at most 25% of the stream's raw bytes fit
  /// in memory, so at least three quarters of the log lives on disk.
  Scenario SpillScenario(uint64_t seed, size_t engine_threads) const {
    Scenario scenario;
    scenario.name = "spill";
    scenario.seed = seed;
    scenario.engine_threads = engine_threads;
    scenario.store.memory_budget_bytes =
        StreamRawBytes(scenario.num_chunks) / 4;
    scenario.store.spill_dir = dir_.string();
    return scenario;
  }

  fs::path dir_;
};

void ExpectBitIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();
  ASSERT_FALSE(a.fingerprint.empty());
  // The checkpoint serializes pipeline statistics, model weights, and
  // optimizer state in hexfloat — equality is bit-identity of the final
  // deployed state.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.report.final_error, b.report.final_error);
  EXPECT_EQ(a.report.chunks_processed, b.report.chunks_processed);
  EXPECT_EQ(a.report.proactive_iterations(), b.report.proactive_iterations());
  // Either-tier sampling totals match: the tier split moves hits between
  // memory and disk but never changes what was sampled.
  EXPECT_EQ(a.report.storage.SampleHits(), b.report.storage.SampleHits());
  EXPECT_EQ(a.report.storage.sample_misses, b.report.storage.sample_misses);
  ASSERT_EQ(a.report.curve.size(), b.report.curve.size());
  for (size_t i = 0; i < a.report.curve.size(); ++i) {
    EXPECT_EQ(a.report.curve[i].observations, b.report.curve[i].observations);
    EXPECT_EQ(a.report.curve[i].cumulative_error,
              b.report.curve[i].cumulative_error);
    EXPECT_EQ(a.report.curve[i].windowed_error,
              b.report.curve[i].windowed_error);
  }
}

TEST_F(SpillScenarioTest, SpillingIsBitIdenticalToRamOnlySingleThread) {
  Scenario ram_only;
  ram_only.seed = 7;
  ram_only.engine_threads = 1;
  const ScenarioResult control = RunScenario(ram_only);
  const ScenarioResult spilled = RunScenario(SpillScenario(7, 1));
  ExpectBitIdentical(control, spilled);
  EXPECT_GT(spilled.report.storage.chunks_spilled, 0);
  EXPECT_EQ(control.report.storage.chunks_spilled, 0);
}

TEST_F(SpillScenarioTest, SpillingIsBitIdenticalToRamOnlyFourThreads) {
  Scenario ram_only;
  ram_only.seed = 7;
  ram_only.engine_threads = 4;
  const ScenarioResult control = RunScenario(ram_only);
  const ScenarioResult spilled = RunScenario(SpillScenario(7, 4));
  ExpectBitIdentical(control, spilled);
  EXPECT_GT(spilled.report.storage.chunks_spilled, 0);
}

TEST_F(SpillScenarioTest, ThreadCountInvarianceWithSpilling) {
  // {1, 4} engine threads produce the same bits with the disk tier active —
  // the prefetch worker overlaps IO but never reorders observable work.
  const ScenarioResult one = RunScenario(SpillScenario(11, 1));
  const ScenarioResult four = RunScenario(SpillScenario(11, 4));
  ExpectBitIdentical(one, four);
}

TEST_F(SpillScenarioTest, QuarterBudgetRunReportsDiskTierActivity) {
  // Acceptance bar: budget ≤ 25% of raw bytes, run completes, disk-tier μ
  // strictly positive, no recompute storm (unbounded materialization keeps
  // misses at zero), prefetch hit rate reported.
  const ScenarioResult result = RunScenario(SpillScenario(3, 1));
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.storage.chunks_spilled, 0);
  EXPECT_GT(result.report.storage.DiskMu(), 0.0);
  EXPECT_GT(result.report.storage.MemoryMu(), 0.0);
  EXPECT_DOUBLE_EQ(
      result.report.storage.MemoryMu() + result.report.storage.DiskMu(),
      result.report.storage.EmpiricalMu());
  EXPECT_EQ(result.report.storage.sample_misses, 0);
  EXPECT_EQ(result.report.storage.spilled_chunks_dropped, 0);
  EXPECT_EQ(result.report.storage.spill_corrupt_detected, 0);
  EXPECT_GE(result.report.storage.PrefetchHitRate(), 0.0);
  EXPECT_LE(result.report.storage.PrefetchHitRate(), 1.0);
  EXPECT_GT(result.report.storage.SpillCompressionRatio(), 0.0);
  // The budget actually bit: most of the log lives on disk.
  EXPECT_GE(result.report.storage.chunks_spilled,
            static_cast<int64_t>(result.report.chunks_processed) / 2);
}

TEST_F(SpillScenarioTest, SpillWriteFailureDegradesToKeepInMemory) {
  // Satellite scenario: spill-write failures degrade to keep-in-memory —
  // the run completes, the budget is temporarily exceeded, and the failure
  // count lands in the deployment report.
  Scenario scenario = SpillScenario(3, 1);
  scenario.faults = {{"spill.write", FaultRule::EveryN(2)}};
  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.storage.spill_failures, 0);
  // The other half succeeded.
  EXPECT_GT(result.report.storage.chunks_spilled, 0);
  EXPECT_EQ(result.report.storage.spilled_chunks_dropped, 0);
  // Degrading never loses data, so the numerics stay bit-identical to the
  // unfaulted spill run.
  const ScenarioResult clean = RunScenario(SpillScenario(3, 1));
  ExpectBitIdentical(clean, result);
}

TEST_F(SpillScenarioTest, CorruptSpillFilesAreDroppedWithExactAccounting) {
  // Satellite scenario: every injected corruption is detected by the
  // checksum and answered by dropping the chunk (recompute-from-nothing).
  // CI gates on detections == injections; with only spill.corrupt armed,
  // `faults_injected` is exactly the injection count.
  Scenario scenario = SpillScenario(3, 1);
  scenario.store.max_materialized_chunks = 3;  // force disk reads
  scenario.faults = {{"spill.corrupt", FaultRule::EveryN(4)}};
  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.storage.spill_corrupt_detected, 0);
  EXPECT_EQ(result.report.storage.spill_corrupt_detected,
            result.report.faults_injected());
  // A detection only becomes a drop when the corrupt load is collected; a
  // corrupted staged load that the next window drops is detected but the
  // file — which the fault never touched — reads fine next time.
  EXPECT_GT(result.report.storage.spilled_chunks_dropped, 0);
  EXPECT_LE(result.report.storage.spilled_chunks_dropped,
            result.report.storage.spill_corrupt_detected);
  EXPECT_EQ(result.report.chunks_processed, 24);
}

TEST_F(SpillScenarioTest, ThrowingPrefetchReadIsContained) {
  // Satellite scenario: an exception thrown by a staged read is contained
  // (the lane survives, the load returns a failed status) and the sample
  // path falls back to a synchronous load.
  Scenario scenario = SpillScenario(3, 1);
  scenario.store.max_materialized_chunks = 3;  // force disk reads
  FaultRule rule = FaultRule::Probability(0.3, 99);
  rule.throws = true;
  scenario.faults = {{"spill.read", rule}};
  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.chunks_processed, 24);
  // Chunks were never dropped: read failures keep them live for retry.
  EXPECT_EQ(result.report.storage.spilled_chunks_dropped, 0);
  EXPECT_EQ(result.report.storage.spill_corrupt_detected, 0);
}

/// Stages the next sample after the final chunk, as ContinuousDeployment
/// does whenever the stream length is a multiple of its cadence, but first
/// parks the async lane behind a sleeping task: the staged reads are still
/// queued when the hook returns and Run assembles its report.
class FinalWindowDeployment final : public Deployment {
 public:
  FinalWindowDeployment(Options options, size_t num_chunks)
      : Deployment("final_window", std::move(options),
                   MakeUrlPipeline(PipeConfig()),
                   std::make_unique<LinearModel>(
                       MakeUrlModelOptions(PipeConfig())),
                   MakeOptimizer(OptimizerOptions{}),
                   std::make_unique<MisclassificationRate>()),
        num_chunks_(num_chunks) {}

 protected:
  Status AfterChunk(size_t stream_index, const RawChunk& /*chunk*/,
                    const ChunkOutcome& /*outcome*/) override {
    if (stream_index + 1 < num_chunks_) return Status::OK();
    engine().SubmitAsync(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(200)); });
    data_manager().PrefetchForNextSample(/*sample_size=*/5,
                                         /*chunks_ahead=*/3, rng());
    return Status::OK();
  }

 private:
  static UrlPipelineConfig PipeConfig() {
    UrlPipelineConfig config;
    config.raw_dim = 1000;
    config.hash_bits = 7;
    return config;
  }

  size_t num_chunks_;
};

TEST_F(SpillScenarioTest, FinalPrefetchWindowIsCountedInTheReport) {
  // Every read of the final window is corrupted, so each one is exactly one
  // injection and one detection, and each charges disk-load seconds.  The
  // run reads nothing else from disk.
  const Scenario scenario = SpillScenario(3, 1);
  Deployment::Options options;
  options.store = scenario.store;
  ScopedFaultScript script({{"spill.corrupt", FaultRule::EveryN(1)}});
  Result<DeploymentReport> report = Status::Internal("not run");
  {
    FinalWindowDeployment deployment(options, scenario.num_chunks);
    report = deployment.Run(MakeScenarioStream(scenario.num_chunks));
  }  // the engine's destructor finishes whatever the lane still holds
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const int64_t reads =
      FaultInjector::Global().StatsFor("spill.corrupt").triggers;
  ASSERT_GT(reads, 0);
  EXPECT_EQ(report->storage.spill_corrupt_detected, reads);
  EXPECT_EQ(report->faults_injected(), reads);
  EXPECT_GT(report->cost.SecondsIn(CostPhase::kDiskLoad), 0.0);
}

TEST_F(SpillScenarioTest, BoundedMaterializationSpillRunCompletes) {
  // The hardest configuration: tight materialization bound + tight memory
  // budget, so proactive samples routinely re-materialize from disk.
  Scenario scenario = SpillScenario(5, 4);
  scenario.store.max_materialized_chunks = 4;
  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.report.storage.sample_misses, 0);
  EXPECT_GT(result.report.storage.disk_loads +
                result.report.storage.prefetch_hits,
            0);
  // Re-materialization from the disk tier loses nothing.
  EXPECT_EQ(result.report.storage.spilled_chunks_dropped, 0);
}

}  // namespace
}  // namespace testing
}  // namespace cdpipe

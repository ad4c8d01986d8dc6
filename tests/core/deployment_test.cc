// Integration tests of the three deployment strategies over a small
// synthetic URL stream: the paper's qualitative claims must hold even at
// toy scale — periodical costs far more work than continuous, continuous
// beats online on quality under drift, and μ accounting matches the
// storage configuration.

#include "src/core/deployment.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "src/core/continuous_deployment.h"
#include "src/core/online_deployment.h"
#include "src/scheduler/scheduler.h"
#include "src/core/periodical_deployment.h"
#include "src/data/url_stream.h"
#include "src/drift/drift_detector.h"

namespace cdpipe {
namespace {

constexpr size_t kBootstrapChunks = 10;
constexpr size_t kStreamChunks = 60;

UrlStreamGenerator::Config StreamConfig() {
  UrlStreamGenerator::Config config;
  config.feature_dim = 2000;
  config.initial_active_features = 200;
  config.new_features_per_chunk = 1;
  config.perturbed_weights_per_chunk = 20;
  config.drift_step = 0.05;
  config.nnz_per_record = 10;
  config.records_per_chunk = 30;
  config.seed = 123;
  return config;
}

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 2000;
  config.hash_bits = 8;
  return config;
}

Deployment::Options BaseOptions() {
  Deployment::Options options;
  options.eval_window = 500;
  options.seed = 99;
  return options;
}

struct Pieces {
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<LinearModel> model;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<Metric> metric;
};

Pieces MakePieces() {
  UrlPipelineConfig config = PipeConfig();
  Pieces pieces;
  pieces.pipeline = MakeUrlPipeline(config);
  pieces.model = std::make_unique<LinearModel>(MakeUrlModelOptions(config));
  pieces.optimizer = MakeOptimizer(OptimizerOptions{
      .kind = OptimizerKind::kAdam, .learning_rate = 0.02});
  pieces.metric = std::make_unique<MisclassificationRate>();
  return pieces;
}

BatchTrainer::Options InitialTrainOptions() {
  BatchTrainer::Options options;
  options.max_epochs = 10;
  options.batch_size = 0;  // batch gradient descent, as in the paper
  options.tolerance = 1e-4;
  return options;
}

DeploymentReport RunStrategy(Deployment* deployment,
                             const std::vector<RawChunk>& bootstrap,
                             const std::vector<RawChunk>& stream) {
  Status init = deployment->InitialTrain(bootstrap, InitialTrainOptions());
  EXPECT_TRUE(init.ok()) << init.ToString();
  auto report = deployment->Run(stream);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).ValueOrDie();
}

class DeploymentIntegrationTest : public ::testing::Test {
 protected:
  DeploymentIntegrationTest() {
    UrlStreamGenerator generator(StreamConfig());
    bootstrap_ = generator.Generate(kBootstrapChunks);
    stream_ = generator.Generate(kStreamChunks);
  }

  std::vector<RawChunk> bootstrap_;
  std::vector<RawChunk> stream_;
};

TEST_F(DeploymentIntegrationTest, OnlineDeploymentRuns) {
  Pieces p = MakePieces();
  OnlineDeployment deployment(BaseOptions(), std::move(p.pipeline),
                              std::move(p.model), std::move(p.optimizer),
                              std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_EQ(report.strategy, "online");
  EXPECT_EQ(report.chunks_processed, static_cast<int64_t>(kStreamChunks));
  EXPECT_EQ(report.curve.size(), kStreamChunks);
  EXPECT_EQ(report.proactive_iterations(), 0);
  EXPECT_EQ(report.retrainings, 0);
  // Online visits each arriving point exactly once for training.
  EXPECT_EQ(report.cost.WorkIn(CostPhase::kOnlineTraining),
            static_cast<int64_t>(kStreamChunks * 30));
  // The model must do visibly better than chance (0.5).
  EXPECT_LT(report.final_error, 0.4);
}

TEST_F(DeploymentIntegrationTest, ContinuousDeploymentRunsProactively) {
  Pieces p = MakePieces();
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 5;
  continuous.sample_chunks = 8;
  ContinuousDeployment deployment(BaseOptions(), std::move(continuous),
                                  std::move(p.pipeline), std::move(p.model),
                                  std::move(p.optimizer),
                                  std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_EQ(report.strategy, "continuous");
  EXPECT_EQ(report.proactive_iterations(),
            static_cast<int64_t>(kStreamChunks / 5));
  EXPECT_GT(report.cost.WorkIn(CostPhase::kProactiveTraining), 0);
  EXPECT_GT(report.average_proactive_seconds(), 0.0);
  // Everything stays materialized with unbounded storage: μ = 1.
  EXPECT_DOUBLE_EQ(report.empirical_mu, 1.0);
  EXPECT_LT(report.final_error, 0.4);
}

TEST_F(DeploymentIntegrationTest, ContinuousWithBoundedStorageRematerializes) {
  Pieces p = MakePieces();
  Deployment::Options options = BaseOptions();
  options.store.max_materialized_chunks = 10;
  options.sampler = SamplerKind::kUniform;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 5;
  continuous.sample_chunks = 20;
  ContinuousDeployment deployment(std::move(options), std::move(continuous),
                                  std::move(p.pipeline), std::move(p.model),
                                  std::move(p.optimizer),
                                  std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_GT(report.storage.sample_misses, 0);
  EXPECT_GT(report.cost.WorkIn(CostPhase::kMaterialization), 0);
  EXPECT_LT(report.empirical_mu, 1.0);
  EXPECT_GT(report.empirical_mu, 0.0);
}

TEST_F(DeploymentIntegrationTest, PeriodicalDeploymentRetrains) {
  Pieces p = MakePieces();
  Deployment::Options options = BaseOptions();
  // Authentic periodical platform: no feature materialization.
  options.store.max_materialized_chunks = 0;
  PeriodicalDeployment::PeriodicalOptions periodical;
  periodical.retrain_every_chunks = 20;
  periodical.warm_start = true;
  periodical.retrain = InitialTrainOptions();
  PeriodicalDeployment deployment(std::move(options), std::move(periodical),
                                  std::move(p.pipeline), std::move(p.model),
                                  std::move(p.optimizer),
                                  std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_EQ(report.retrainings, static_cast<int64_t>(kStreamChunks / 20));
  EXPECT_GT(report.cost.WorkIn(CostPhase::kRetraining), 0);
  EXPECT_GT(report.cost.WorkIn(CostPhase::kMaterialization), 0);
  EXPECT_LT(report.final_error, 0.4);
}

TEST_F(DeploymentIntegrationTest, PeriodicalCostsMoreWorkThanContinuous) {
  // The paper's headline: periodical deployment pays a far larger training
  // bill than continuous for the same stream.
  Pieces pc = MakePieces();
  ContinuousDeployment::ContinuousOptions continuous_options;
  continuous_options.proactive_every_chunks = 5;
  continuous_options.sample_chunks = 8;
  ContinuousDeployment continuous(
      BaseOptions(), std::move(continuous_options), std::move(pc.pipeline),
      std::move(pc.model), std::move(pc.optimizer), std::move(pc.metric));
  DeploymentReport continuous_report =
      RunStrategy(&continuous, bootstrap_, stream_);

  Pieces pp = MakePieces();
  Deployment::Options periodical_base = BaseOptions();
  periodical_base.store.max_materialized_chunks = 0;
  PeriodicalDeployment::PeriodicalOptions periodical_options;
  periodical_options.retrain_every_chunks = 20;
  periodical_options.retrain = InitialTrainOptions();
  PeriodicalDeployment periodical(
      std::move(periodical_base), std::move(periodical_options),
      std::move(pp.pipeline), std::move(pp.model), std::move(pp.optimizer),
      std::move(pp.metric));
  DeploymentReport periodical_report =
      RunStrategy(&periodical, bootstrap_, stream_);

  EXPECT_GT(periodical_report.total_work, 2 * continuous_report.total_work);
}

TEST_F(DeploymentIntegrationTest, CurvesAreMonotoneInCostAndObservations) {
  Pieces p = MakePieces();
  OnlineDeployment deployment(BaseOptions(), std::move(p.pipeline),
                              std::move(p.model), std::move(p.optimizer),
                              std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  for (size_t i = 1; i < report.curve.size(); ++i) {
    EXPECT_GE(report.curve[i].cumulative_seconds,
              report.curve[i - 1].cumulative_seconds);
    EXPECT_GE(report.curve[i].cumulative_work,
              report.curve[i - 1].cumulative_work);
    EXPECT_GE(report.curve[i].observations,
              report.curve[i - 1].observations);
  }
}

TEST_F(DeploymentIntegrationTest, ReportSerialization) {
  Pieces p = MakePieces();
  OnlineDeployment deployment(BaseOptions(), std::move(p.pipeline),
                              std::move(p.model), std::move(p.optimizer),
                              std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_EQ(report.curve.size(), kStreamChunks);
  auto sampled = report.SampledCurve(10);
  EXPECT_EQ(sampled.size(), 10u);
  EXPECT_EQ(sampled.front().chunk_index, report.curve.front().chunk_index);
  EXPECT_EQ(sampled.back().chunk_index, report.curve.back().chunk_index);
  EXPECT_NE(report.Summary().find("online"), std::string::npos);
}

TEST_F(DeploymentIntegrationTest, BoundedRawStorageKeepsRunning) {
  // With a bounded raw log (N in the paper's analysis), dropped chunks are
  // simply no longer sampleable; the deployment must keep running and the
  // sampler must never hand out dead ids.
  Pieces p = MakePieces();
  Deployment::Options options = BaseOptions();
  options.store.max_raw_chunks = 15;
  options.store.max_materialized_chunks = 8;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 3;
  continuous.sample_chunks = 20;  // more than the live chunk bound
  ContinuousDeployment deployment(std::move(options), std::move(continuous),
                                  std::move(p.pipeline), std::move(p.model),
                                  std::move(p.optimizer),
                                  std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_EQ(report.chunks_processed, static_cast<int64_t>(kStreamChunks));
  EXPECT_EQ(std::as_const(deployment).data_manager().store().num_raw(), 15u);
  EXPECT_GT(report.storage.raw_dropped, 0);
  EXPECT_GT(report.proactive_iterations(), 0);
}

TEST_F(DeploymentIntegrationTest, DynamicSchedulerDrivesProactiveTraining) {
  // Event-time driven dynamic scheduling (formula 6) fed by the measured
  // prediction load: with our microsecond-scale prediction latency the
  // computed delay collapses to min_interval, so proactive training runs
  // at chunk cadence — but entirely through the scheduler path.
  Pieces p = MakePieces();
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.sample_chunks = 8;
  DynamicScheduler::Options dynamic;
  dynamic.slack = 1.5;
  dynamic.initial_interval_seconds = 60.0;
  dynamic.min_interval_seconds = 60.0;  // one chunk period
  continuous.scheduler = std::make_unique<DynamicScheduler>(dynamic);
  ContinuousDeployment deployment(BaseOptions(), std::move(continuous),
                                  std::move(p.pipeline), std::move(p.model),
                                  std::move(p.optimizer),
                                  std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_GT(report.proactive_iterations(), 0);
  EXPECT_LE(report.proactive_iterations(),
            static_cast<int64_t>(kStreamChunks));
}

TEST_F(DeploymentIntegrationTest, VeloxStyleErrorThresholdTriggersRetraining) {
  // With an absurdly low threshold, the error trigger fires as soon as the
  // cool-down allows, independent of the (long) fixed interval.
  Pieces p = MakePieces();
  Deployment::Options options = BaseOptions();
  options.store.max_materialized_chunks = 0;
  PeriodicalDeployment::PeriodicalOptions periodical;
  periodical.retrain_every_chunks = 1000;  // never by interval
  periodical.retrain = InitialTrainOptions();
  periodical.retrain_error_threshold = 1e-6;
  periodical.min_chunks_between_retrains = 20;
  PeriodicalDeployment deployment(std::move(options), std::move(periodical),
                                  std::move(p.pipeline), std::move(p.model),
                                  std::move(p.optimizer),
                                  std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  // 60 chunks, cool-down 20: exactly 3 threshold-triggered retrainings.
  EXPECT_EQ(report.retrainings, 3);
}

TEST_F(DeploymentIntegrationTest, VeloxTriggerStaysQuietWhenErrorIsLow) {
  Pieces p = MakePieces();
  Deployment::Options options = BaseOptions();
  options.store.max_materialized_chunks = 0;
  PeriodicalDeployment::PeriodicalOptions periodical;
  periodical.retrain_every_chunks = 1000;
  periodical.retrain = InitialTrainOptions();
  periodical.retrain_error_threshold = 0.99;  // unreachable
  PeriodicalDeployment deployment(std::move(options), std::move(periodical),
                                  std::move(p.pipeline), std::move(p.model),
                                  std::move(p.optimizer),
                                  std::move(p.metric));
  DeploymentReport report = RunStrategy(&deployment, bootstrap_, stream_);
  EXPECT_EQ(report.retrainings, 0);
}

TEST_F(DeploymentIntegrationTest, ParallelEngineMatchesSingleThread) {
  // Re-materialization fan-out is pure and merged in sample order, so a
  // multi-threaded engine must produce the identical deployment outcome.
  auto run_with_threads = [&](size_t threads) {
    Pieces p = MakePieces();
    Deployment::Options options = BaseOptions();
    options.engine_threads = threads;
    options.store.max_materialized_chunks = 10;  // force re-materialization
    ContinuousDeployment::ContinuousOptions continuous;
    continuous.proactive_every_chunks = 4;
    continuous.sample_chunks = 15;
    ContinuousDeployment deployment(
        std::move(options), std::move(continuous), std::move(p.pipeline),
        std::move(p.model), std::move(p.optimizer), std::move(p.metric));
    return RunStrategy(&deployment, bootstrap_, stream_).final_error;
  };
  EXPECT_DOUBLE_EQ(run_with_threads(1), run_with_threads(4));
}

TEST_F(DeploymentIntegrationTest, NoOptimizationCostsMoreThanOptimized) {
  // §5.4's baseline: disabling online statistics computation (and the
  // feature cache) forces statistics recomputation on every sampled chunk;
  // the same stream must cost strictly more work at identical sampling.
  auto run = [&](bool online_statistics, size_t max_materialized) {
    Pieces p = MakePieces();
    Deployment::Options options = BaseOptions();
    options.online_statistics = online_statistics;
    options.store.max_materialized_chunks = max_materialized;
    ContinuousDeployment::ContinuousOptions continuous;
    continuous.proactive_every_chunks = 4;
    continuous.sample_chunks = 15;
    ContinuousDeployment deployment(
        std::move(options), std::move(continuous), std::move(p.pipeline),
        std::move(p.model), std::move(p.optimizer), std::move(p.metric));
    return RunStrategy(&deployment, bootstrap_, stream_);
  };
  DeploymentReport optimized = run(true, SIZE_MAX);
  DeploymentReport no_cache = run(true, 0);
  DeploymentReport no_opt = run(false, 0);
  EXPECT_GT(no_cache.total_work, optimized.total_work);
  EXPECT_GT(no_opt.total_work, no_cache.total_work);
  // Quality is essentially unaffected.  It is not bit-identical: a cached
  // feature chunk is frozen with the statistics as of its arrival, while a
  // re-materialized chunk is transformed with the *current* statistics —
  // an intentional property of dynamic materialization (§3.2).
  EXPECT_NEAR(no_cache.final_error, optimized.final_error, 0.05);
}

TEST_F(DeploymentIntegrationTest, EachRunReportsOnlyItsOwnCounts) {
  // Two Runs on one deployment: the second report must count the second
  // run only, exactly as that run's own metrics delta does — not the
  // deployment's lifetime totals.
  constexpr size_t kRunChunks = 12;
  constexpr size_t kBurstIterations = 2;
  const std::vector<std::vector<RawChunk>> runs = {
      {stream_.begin(), stream_.begin() + kRunChunks},
      {stream_.begin() + kRunChunks, stream_.begin() + 2 * kRunChunks}};

  Pieces pc = MakePieces();
  ContinuousDeployment::ContinuousOptions continuous_options;
  continuous_options.proactive_every_chunks = 3;
  continuous_options.sample_chunks = 8;
  // A hair-trigger detector: any chunk whose error rises above the mean
  // since the last alarm fires, so both runs see drift.
  PageHinkleyDetector::Options detector;
  detector.delta = 0.0;
  detector.lambda = 1e-6;
  detector.burn_in = 0;
  continuous_options.drift_detector =
      std::make_unique<PageHinkleyDetector>(detector);
  continuous_options.drift_burst_iterations = kBurstIterations;
  ContinuousDeployment continuous(
      BaseOptions(), std::move(continuous_options), std::move(pc.pipeline),
      std::move(pc.model), std::move(pc.optimizer), std::move(pc.metric));
  ASSERT_TRUE(continuous.InitialTrain(bootstrap_, InitialTrainOptions()).ok());
  for (const std::vector<RawChunk>& run : runs) {
    Result<DeploymentReport> report = continuous.Run(run);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->proactive_iterations(),
              report->metrics.CounterValueOr("proactive.iterations", 0));
    EXPECT_EQ(report->drift_events(),
              report->metrics.CounterValueOr("deployment.drift_events", 0));
    EXPECT_GT(report->drift_events(), 0);
    // One scheduled step every 3 chunks plus each drift's burst.
    EXPECT_EQ(report->proactive_iterations(),
              static_cast<int64_t>(kRunChunks / 3 +
                                   kBurstIterations * report->drift_events()));
  }

  Pieces pp = MakePieces();
  Deployment::Options periodical_base = BaseOptions();
  periodical_base.store.max_materialized_chunks = 0;
  PeriodicalDeployment::PeriodicalOptions periodical_options;
  periodical_options.retrain_every_chunks = 4;
  periodical_options.retrain = InitialTrainOptions();
  PeriodicalDeployment periodical(
      std::move(periodical_base), std::move(periodical_options),
      std::move(pp.pipeline), std::move(pp.model), std::move(pp.optimizer),
      std::move(pp.metric));
  ASSERT_TRUE(periodical.InitialTrain(bootstrap_, InitialTrainOptions()).ok());
  for (const std::vector<RawChunk>& run : runs) {
    Result<DeploymentReport> report = periodical.Run(run);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->retrainings,
              report->metrics.CounterValueOr("deployment.retrainings", 0));
    EXPECT_EQ(report->retrainings, static_cast<int64_t>(kRunChunks / 4));
  }
}

TEST_F(DeploymentIntegrationTest, DeterministicAcrossRuns) {
  auto run_once = [&]() {
    Pieces p = MakePieces();
    ContinuousDeployment::ContinuousOptions continuous;
    continuous.proactive_every_chunks = 5;
    continuous.sample_chunks = 8;
    ContinuousDeployment deployment(
        BaseOptions(), std::move(continuous), std::move(p.pipeline),
        std::move(p.model), std::move(p.optimizer), std::move(p.metric));
    return RunStrategy(&deployment, bootstrap_, stream_).final_error;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cdpipe

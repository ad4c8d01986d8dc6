// Golden serve-then-train equivalence: routing the deployment loop's
// prequential evaluate step through the PredictionService must be
// BIT-IDENTICAL to the in-loop evaluate path — same quality curve row by
// row, same final deployed state (hexfloat-exact checkpoint fingerprint) —
// at engine threads {1, 4} and under both statistics modes (online
// statistics, and the NoOptimization baseline that recomputes them), with
// a feature cache small enough that proactive steps re-materialize.
//
// Why this holds: in serve-eval mode the deployment publishes the snapshot
// after the chunk's statistics update and before its online SGD step, and
// hands the service the features UpdateAndTransform produced together with
// the live statistics version.  The snapshot that answers was frozen at
// that version, so the service scores those features with the snapshot
// model, the same pre-update model the in-loop path evaluates with.
// Scoring them in place of a snapshot Transform of the chunk is exact
// because a pure Transform after UpdateAndTransform of the same chunk, on
// the live pipeline or on a fresh Clone(), reproduces its features bit for
// bit (each stage sees the same input under the same post-chunk
// statistics): ServedFeatureReuseTest pins that premise on every golden
// fixture.  ServeEvalTransformCountTest counts plan executions to show the
// chunk is transformed once, and a second time only when an older epoch
// answers because overload gating skipped the chunk's publish.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/core/admission.h"
#include "src/core/continuous_deployment.h"
#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"
#include "src/obs/metrics.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"
#include "src/testing/fault_injector.h"
#include "tests/golden/golden_pipelines.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace {

constexpr size_t kBootstrapChunks = 4;
constexpr size_t kStreamChunks = 18;
/// Feature cache bound small enough that proactive steps re-materialize.
constexpr size_t kSmallFeatureCache = 3;

UrlStreamGenerator::Config StreamConfig() {
  UrlStreamGenerator::Config config;
  config.feature_dim = 800;
  config.initial_active_features = 120;
  config.new_features_per_chunk = 1;
  config.perturbed_weights_per_chunk = 10;
  config.drift_step = 0.05;
  config.nnz_per_record = 8;
  config.records_per_chunk = 20;
  config.seed = 321;
  return config;
}

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 800;
  config.hash_bits = 7;
  return config;
}

/// The two ways re-materialization obtains statistics (§5.4).
enum class StatisticsMode { kOnline, kRecompute };

/// How a run attaches the serving tier.
enum class Attach {
  kNone,
  /// Publisher and service, with serve-evaluation routing.
  kServeEval,
  /// Serve-evaluation asked for with a service but no publisher.
  kServiceWithoutPublisher,
};

/// The continuous deployment every test here runs (Adam, proactive step
/// every 3 chunks over 4 sampled chunks), with a feature cache of
/// `max_materialized_chunks`.
std::unique_ptr<ContinuousDeployment> MakeDeployment(
    size_t engine_threads, StatisticsMode mode,
    size_t max_materialized_chunks) {
  Deployment::Options options;
  options.eval_window = 300;
  options.seed = 7;
  options.engine_threads = engine_threads;
  options.online_statistics = mode == StatisticsMode::kOnline;
  options.store.max_materialized_chunks = max_materialized_chunks;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 3;
  continuous.sample_chunks = 4;

  const UrlPipelineConfig pipe_config = PipeConfig();
  return std::make_unique<ContinuousDeployment>(
      std::move(options), std::move(continuous), MakeUrlPipeline(pipe_config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.01}),
      std::make_unique<MisclassificationRate>());
}

serving::PredictionService::Options ServiceOptions(
    const Deployment& deployment) {
  serving::PredictionService::Options options;
  options.deployment_id = deployment.deployment_id();
  return options;
}

/// Runs InitialTrain on the first kBootstrapChunks chunks of the seeded
/// stream and returns the kStreamChunks chunks after them.
std::vector<RawChunk> TrainOnBootstrap(Deployment* deployment) {
  UrlStreamGenerator generator(StreamConfig());
  const std::vector<RawChunk> all =
      generator.Generate(kBootstrapChunks + kStreamChunks);
  const std::vector<RawChunk> bootstrap(all.begin(),
                                        all.begin() + kBootstrapChunks);
  BatchTrainer::Options train_options;
  train_options.max_epochs = 5;
  train_options.batch_size = 0;
  train_options.tolerance = 1e-4;
  CDPIPE_CHECK(deployment->InitialTrain(bootstrap, train_options).ok());
  return std::vector<RawChunk>(all.begin() + kBootstrapChunks, all.end());
}

/// Plan executions so far on any pipeline: each execution of a compiled
/// plan observes every component's transform histogram once, on the
/// online, re-materialization and serving paths alike, so the first
/// component's count counts them.
uint64_t PlanExecutions(const Deployment& deployment) {
  const std::string first =
      deployment.pipeline_manager().pipeline().component(0).name();
  return obs::MetricsRegistry::Global()
      .GetHistogram("pipeline.component." + first + ".transform_seconds")
      ->TotalCount();
}

struct RunResult {
  DeploymentReport report;
  std::string fingerprint;
};

/// One full InitialTrain + Run of the continuous strategy with the small
/// feature cache and the serving tier attached as `attach` says.
RunResult RunOnce(size_t engine_threads, StatisticsMode mode, Attach attach) {
  std::unique_ptr<ContinuousDeployment> deployment =
      MakeDeployment(engine_threads, mode, kSmallFeatureCache);
  serving::SnapshotPublisher publisher;
  serving::PredictionService service(&publisher, ServiceOptions(*deployment));
  if (attach == Attach::kServeEval) {
    deployment->AttachServing(&publisher, &service,
                              /*serve_evaluation=*/true);
  } else if (attach == Attach::kServiceWithoutPublisher) {
    deployment->AttachServing(nullptr, &service, /*serve_evaluation=*/true);
  }
  const std::vector<RawChunk> stream = TrainOnBootstrap(deployment.get());

  RunResult result;
  result.report = deployment->Run(stream).ValueOrDie();
  std::ostringstream buffer;
  CDPIPE_CHECK(
      SaveCheckpoint(std::as_const(*deployment).pipeline_manager(), &buffer)
          .ok());
  result.fingerprint = buffer.str();
  return result;
}

void ExpectBitIdenticalQuality(const RunResult& baseline,
                               const RunResult& served) {
  ASSERT_EQ(baseline.report.curve.size(), served.report.curve.size());
  for (size_t i = 0; i < baseline.report.curve.size(); ++i) {
    const auto& a = baseline.report.curve[i];
    const auto& b = served.report.curve[i];
    EXPECT_EQ(a.observations, b.observations) << "chunk " << i;
    EXPECT_EQ(a.cumulative_error, b.cumulative_error) << "chunk " << i;
    EXPECT_EQ(a.windowed_error, b.windowed_error) << "chunk " << i;
    EXPECT_EQ(a.cumulative_work, b.cumulative_work) << "chunk " << i;
  }
  EXPECT_EQ(baseline.report.final_error, served.report.final_error);
  EXPECT_EQ(baseline.fingerprint, served.fingerprint);
}

class ServeThenTrainTest
    : public ::testing::TestWithParam<std::tuple<size_t, StatisticsMode>> {};

TEST_P(ServeThenTrainTest, ServedEvaluationIsBitIdenticalToInLoop) {
  const size_t engine_threads = std::get<0>(GetParam());
  const StatisticsMode mode = std::get<1>(GetParam());

  const RunResult baseline = RunOnce(engine_threads, mode, Attach::kNone);
  const RunResult served = RunOnce(engine_threads, mode, Attach::kServeEval);
  // The small feature cache made proactive steps re-materialize.
  EXPECT_GT(served.report.cost.WorkIn(CostPhase::kMaterialization), 0);

  ExpectBitIdenticalQuality(baseline, served);
  // Every chunk was evaluated through the service, nothing fell back, and
  // the swap protocol held.
  EXPECT_EQ(served.report.serving_requests(),
            static_cast<int64_t>(kStreamChunks));
  EXPECT_EQ(served.report.serving_eval_fallbacks(), 0);
  EXPECT_EQ(served.report.serving_errors(), 0);
  EXPECT_EQ(served.report.serving_stale_reads, 0);
  // Publish cadence: one at Run start, one mid-chunk per chunk, plus the
  // end-of-chunk / post-proactive publishes — at least two per chunk.
  EXPECT_GE(served.report.snapshot_publishes(),
            static_cast<int64_t>(2 * kStreamChunks));
  EXPECT_EQ(baseline.report.serving_requests(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndModes, ServeThenTrainTest,
    ::testing::Combine(::testing::Values<size_t>(1, 4),
                       ::testing::Values(StatisticsMode::kOnline,
                                         StatisticsMode::kRecompute)));

// The premise of scoring the online path's features: after each
// UpdateAndTransform, a pure Transform of the same chunk reproduces the
// online output bit for bit, on a fresh Clone() (what a snapshot holds)
// and on the live pipeline alike.
TEST(ServedFeatureReuseTest, CloneAndLiveTransformReproduceOnlineOutput) {
  for (golden::GoldenCase& c : golden::AllGoldenCases()) {
    SCOPED_TRACE("case " + c.name);
    for (size_t i = 0; i < c.chunks.size(); ++i) {
      const std::string at = c.name + " chunk " + std::to_string(i);
      Result<FeatureData> online = c.pipeline->UpdateAndTransform(c.chunks[i]);
      ASSERT_TRUE(online.ok()) << online.status().ToString();
      const std::unique_ptr<Pipeline> clone = c.pipeline->Clone();
      EXPECT_TRUE(testing::FeatureDataBitEqual(
          *online, std::move(clone->Transform(c.chunks[i])).ValueOrDie(),
          at + " (clone)"));
      EXPECT_TRUE(testing::FeatureDataBitEqual(
          *online, std::move(c.pipeline->Transform(c.chunks[i])).ValueOrDie(),
          at + " (live)"));
    }
  }
}

TEST(ServeEvalTransformCountTest, RunTransformsEachChunkOnce) {
  // An unbounded feature cache: proactive steps never re-materialize, so
  // the replay's only plan executions are the online path's and serving's.
  std::unique_ptr<ContinuousDeployment> deployment =
      MakeDeployment(1, StatisticsMode::kOnline, SIZE_MAX);
  serving::SnapshotPublisher publisher;
  serving::PredictionService service(&publisher, ServiceOptions(*deployment));
  deployment->AttachServing(&publisher, &service, /*serve_evaluation=*/true);
  const std::vector<RawChunk> stream = TrainOnBootstrap(deployment.get());

  const uint64_t before = PlanExecutions(*deployment);
  const DeploymentReport report = deployment->Run(stream).ValueOrDie();
  EXPECT_EQ(report.serving_requests(), static_cast<int64_t>(kStreamChunks));
  EXPECT_EQ(report.serving_eval_fallbacks(), 0);
  EXPECT_EQ(report.cost.WorkIn(CostPhase::kMaterialization), 0);
  // One UpdateAndTransform per chunk, and every served evaluation scored
  // its features.
  EXPECT_EQ(PlanExecutions(*deployment) - before, kStreamChunks);
}

TEST(ServeEvalTransformCountTest, GatedPublishTransformsOnServingPath) {
  std::unique_ptr<ContinuousDeployment> deployment =
      MakeDeployment(1, StatisticsMode::kOnline, SIZE_MAX);
  serving::SnapshotPublisher publisher;
  serving::PredictionService service(&publisher, ServiceOptions(*deployment));
  deployment->AttachServing(&publisher, &service, /*serve_evaluation=*/true);
  std::vector<RawChunk> stream = TrainOnBootstrap(deployment.get());
  // Arrivals three times faster than the consumer drains: the queue
  // overloads and per-chunk publishes are gated.
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].event_time_seconds = static_cast<int64_t>(10 * i);
  }
  AdmissionController::Options admission_options;
  admission_options.queue_capacity = 8;
  admission_options.high_watermark = 3;
  admission_options.low_watermark = 1;
  admission_options.policy = AdmissionPolicy::kShedNewest;
  admission_options.service_seconds_per_chunk = 30.0;
  AdmissionController admission(admission_options);

  const uint64_t before = PlanExecutions(*deployment);
  const DeploymentReport report =
      deployment->RunShaped(stream, &admission).ValueOrDie();
  // A gated chunk is an overloaded one, and under overload the continuous
  // strategy defers its proactive step, so no hook publishes either: every
  // gated chunk is counted in publish_skipped_overload.
  const int64_t gated = report.publish_skipped_overload;
  ASSERT_GT(gated, 0);
  ASSERT_LT(gated, report.chunks_processed);
  EXPECT_EQ(report.serving_requests(), report.chunks_processed);
  EXPECT_EQ(report.serving_eval_fallbacks(), 0);
  // One UpdateAndTransform per processed chunk, plus a snapshot transform
  // exactly for the chunks an older epoch answered.
  EXPECT_EQ(static_cast<int64_t>(PlanExecutions(*deployment) - before),
            report.chunks_processed + gated);
}

TEST(ServeEvalCostTest, ChargesServedRequestsToPrediction) {
  // The served request is the evaluation's prediction time, as Predict is
  // in the in-loop path: a request delayed by d charges at least d.
  constexpr double kDelaySeconds = 0.002;
  std::unique_ptr<ContinuousDeployment> deployment =
      MakeDeployment(1, StatisticsMode::kOnline, kSmallFeatureCache);
  serving::SnapshotPublisher publisher;
  serving::PredictionService service(&publisher, ServiceOptions(*deployment));
  deployment->AttachServing(&publisher, &service, /*serve_evaluation=*/true);
  const std::vector<RawChunk> stream = TrainOnBootstrap(deployment.get());

  testing::FaultRule slow = testing::FaultRule::EveryN(1);
  slow.delay_seconds = kDelaySeconds;
  testing::ScopedFaultScript script({{"serving.slow_request", slow}});
  const DeploymentReport report = deployment->Run(stream).ValueOrDie();
  EXPECT_EQ(report.serving_requests(), static_cast<int64_t>(kStreamChunks));
  EXPECT_GE(report.cost.SecondsIn(CostPhase::kPrediction),
            static_cast<double>(kStreamChunks) * kDelaySeconds);
}

TEST(ServeEvalAttachTest, ServiceWithoutPublisherEvaluatesInLoop) {
  // Serve-eval answers from the published snapshot, so a service with no
  // publisher leaves the evaluation in the loop: no request, same run.
  const RunResult in_loop = RunOnce(1, StatisticsMode::kOnline, Attach::kNone);
  const RunResult half =
      RunOnce(1, StatisticsMode::kOnline, Attach::kServiceWithoutPublisher);
  EXPECT_EQ(half.report.serving_requests(), 0);
  EXPECT_EQ(half.report.serving_eval_fallbacks(), 0);
  EXPECT_EQ(half.report.snapshot_publishes(), 0);
  ExpectBitIdenticalQuality(in_loop, half);
}

}  // namespace
}  // namespace cdpipe

// Golden serve-then-train equivalence: routing the deployment loop's
// prequential evaluate step through the PredictionService must be
// BIT-IDENTICAL to the in-loop evaluate path — same quality curve row by
// row, same final deployed state (hexfloat-exact checkpoint fingerprint) —
// at engine threads {1, 4} and under both statistics modes (online
// statistics, and the NoOptimization baseline that recomputes them), with
// a feature cache small enough that proactive steps re-materialize.
//
// Why this holds: in serve-eval mode the deployment publishes the snapshot
// after the chunk's statistics update and before its online SGD step.  A
// pure Transform after UpdateAndTransform of the same chunk reproduces its
// features exactly (each stage sees the same input under the same
// post-chunk statistics), and the snapshot model is the same pre-update
// model the in-loop path evaluates with.

#include <memory>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/core/continuous_deployment.h"
#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {
namespace {

constexpr size_t kBootstrapChunks = 4;
constexpr size_t kStreamChunks = 18;

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

struct RunResult {
  DeploymentReport report;
  std::string fingerprint;
};

/// One full InitialTrain + Run of the continuous strategy.  When `service`
/// configuration is supplied, the serving tier is attached with
/// serve-evaluation routing.
/// The two ways re-materialization obtains statistics (§5.4).
enum class StatisticsMode { kOnline, kRecompute };

RunResult RunOnce(size_t engine_threads, StatisticsMode mode,
                  bool serve_eval) {
  Deployment::Options options;
  options.eval_window = 300;
  options.seed = 7;
  options.engine_threads = engine_threads;
  options.online_statistics = mode == StatisticsMode::kOnline;
  options.store.max_materialized_chunks = 3;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 3;
  continuous.sample_chunks = 4;

  const UrlPipelineConfig pipe_config = PipeConfig();
  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), MakeUrlPipeline(pipe_config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.01}),
      std::make_unique<MisclassificationRate>());

  serving::SnapshotPublisher publisher;
  serving::PredictionService::Options service_options;
  service_options.deployment_id = deployment.deployment_id();
  serving::PredictionService service(&publisher, service_options);
  if (serve_eval) {
    deployment.AttachServing(&publisher, &service,
                             /*serve_evaluation=*/true);
  }

  UrlStreamGenerator generator(StreamConfig());
  const std::vector<RawChunk> all =
      generator.Generate(kBootstrapChunks + kStreamChunks);
  const std::vector<RawChunk> bootstrap(all.begin(),
                                        all.begin() + kBootstrapChunks);
  const std::vector<RawChunk> stream(all.begin() + kBootstrapChunks,
                                     all.end());

  BatchTrainer::Options train_options;
  train_options.max_epochs = 5;
  train_options.batch_size = 0;
  train_options.tolerance = 1e-4;
  CDPIPE_CHECK(deployment.InitialTrain(bootstrap, train_options).ok());

  RunResult result;
  result.report = deployment.Run(stream).ValueOrDie();
  std::ostringstream buffer;
  CDPIPE_CHECK(
      SaveCheckpoint(std::as_const(deployment).pipeline_manager(), &buffer)
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

  const RunResult baseline =
      RunOnce(engine_threads, mode, /*serve_eval=*/false);
  const RunResult served = RunOnce(engine_threads, mode, /*serve_eval=*/true);
  // The small feature cache made proactive steps re-materialize.
  EXPECT_GT(served.report.cost.WorkIn(CostPhase::kMaterialization), 0);

  ExpectBitIdenticalQuality(baseline, served);
  // Every chunk was evaluated through the service, nothing fell back, and
  // the swap protocol held.
  EXPECT_EQ(served.report.serving_requests,
            static_cast<int64_t>(kStreamChunks));
  EXPECT_EQ(served.report.serving_eval_fallbacks, 0);
  EXPECT_EQ(served.report.serving_errors, 0);
  EXPECT_EQ(served.report.serving_stale_reads, 0);
  // Publish cadence: one at Run start, one mid-chunk per chunk, plus the
  // end-of-chunk / post-proactive publishes — at least two per chunk.
  EXPECT_GE(served.report.snapshot_publishes,
            static_cast<int64_t>(2 * kStreamChunks));
  EXPECT_EQ(baseline.report.serving_requests, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndModes, ServeThenTrainTest,
    ::testing::Combine(::testing::Values<size_t>(1, 4),
                       ::testing::Values(StatisticsMode::kOnline,
                                         StatisticsMode::kRecompute)));

}  // namespace
}  // namespace cdpipe

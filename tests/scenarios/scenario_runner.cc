#include "tests/scenarios/scenario_runner.h"

#include <memory>
#include <sstream>
#include <utility>

#include "src/core/continuous_deployment.h"
#include "src/core/periodical_deployment.h"
#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {
namespace testing {
namespace {

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 7;
  return config;
}

}  // namespace

std::vector<RawChunk> MakeScenarioStream(size_t num_chunks) {
  UrlStreamGenerator::Config config;
  config.feature_dim = 1000;
  config.initial_active_features = 120;
  config.nnz_per_record = 6;
  config.records_per_chunk = 24;
  config.seed = 11;
  UrlStreamGenerator generator(config);
  return generator.Generate(num_chunks);
}

const char* ScenarioStrategyName(ScenarioStrategy strategy) {
  switch (strategy) {
    case ScenarioStrategy::kContinuous:
      return "Continuous";
    case ScenarioStrategy::kDrift:
      return "Drift";
    case ScenarioStrategy::kPeriodical:
      return "Periodical";
  }
  return "?";
}

std::unique_ptr<Deployment> MakeScenarioDeployment(const Scenario& scenario) {
  Deployment::Options options;
  options.seed = scenario.seed;
  options.store = scenario.store;
  options.engine_threads = scenario.engine_threads;
  options.retry = scenario.retry;
  options.publish_staleness_bound_chunks =
      scenario.publish_staleness_bound_chunks;
  const UrlPipelineConfig config = PipeConfig();
  auto model = std::make_unique<LinearModel>(MakeUrlModelOptions(config));
  auto optimizer = MakeOptimizer(
      OptimizerOptions{.kind = OptimizerKind::kAdam, .learning_rate = 0.01});
  if (scenario.strategy == ScenarioStrategy::kPeriodical) {
    PeriodicalDeployment::PeriodicalOptions periodical;
    periodical.retrain_every_chunks = scenario.retrain_every_chunks;
    periodical.retrain = BatchTrainer::Options{
        .max_epochs = 5, .batch_size = 0, .tolerance = 1e-4};
    return std::make_unique<PeriodicalDeployment>(
        std::move(options), std::move(periodical), MakeUrlPipeline(config),
        std::move(model), std::move(optimizer),
        std::make_unique<MisclassificationRate>());
  }
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = scenario.proactive_every_chunks;
  continuous.sample_chunks = scenario.sample_chunks;
  if (scenario.strategy == ScenarioStrategy::kDrift) {
    continuous.drift_detector = std::make_unique<PageHinkleyDetector>(
        PageHinkleyDetector::Options{
            .delta = 0.0, .lambda = 0.05, .burn_in = 3});
  }
  return std::make_unique<ContinuousDeployment>(
      std::move(options), std::move(continuous), MakeUrlPipeline(config),
      std::move(model), std::move(optimizer),
      std::make_unique<MisclassificationRate>());
}

ScenarioResult RunScenario(const Scenario& scenario) {
  ScenarioResult result;

  std::unique_ptr<Deployment> deployment_ptr = MakeScenarioDeployment(scenario);
  Deployment& deployment = *deployment_ptr;

  serving::SnapshotPublisher publisher;
  serving::PredictionService::Options service_options;
  service_options.num_threads = scenario.serving_threads;
  service_options.deployment_id = deployment.deployment_id();
  serving::PredictionService service(&publisher, service_options);
  if (scenario.attach_serving) {
    deployment.AttachServing(&publisher, &service, scenario.serve_evaluation);
    if (!service.Start().ok()) {
      result.status = Status::Internal("failed to start prediction service");
      return result;
    }
  }

  {
    // The script covers stream generation too: short-read sites live in
    // the generators.  ScopedFaultScript guarantees disarming even when a
    // scenario assertion throws.
    std::unique_ptr<ScopedFaultScript> script;
    if (scenario.arm_injector) {
      script = std::make_unique<ScopedFaultScript>(scenario.faults);
    }
    std::vector<RawChunk> stream = MakeScenarioStream(scenario.num_chunks);
    if (scenario.shaped) ApplyTrafficShape(scenario.traffic, &stream);
    Result<DeploymentReport> report = [&]() -> Result<DeploymentReport> {
      if (!scenario.shaped) return deployment.Run(stream);
      AdmissionController admission(scenario.admission);
      return deployment.RunShaped(stream, &admission);
    }();
    if (scenario.attach_serving) service.Stop();
    if (!report.ok()) {
      result.status = report.status();
      return result;
    }
    result.report = *std::move(report);
  }

  // Fingerprint the final deployed state with the injector disarmed — a
  // checkpoint.save fault must not masquerade as a divergence.
  std::ostringstream buffer;
  result.status =
      SaveCheckpoint(std::as_const(deployment).pipeline_manager(), &buffer);
  if (result.status.ok()) result.fingerprint = buffer.str();
  return result;
}

}  // namespace testing
}  // namespace cdpipe

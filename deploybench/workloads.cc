#include "deploybench/workloads.h"

#include <utility>

#include "src/common/logging.h"

namespace cdpipe {
namespace deploybench {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = {
      // Storage + sampling: a feature cache far below the live history keeps
      // μ strictly inside (0, 1), and a raw budget of 3/4 of the stream's
      // bytes spills the oldest chunks, which the time sampler still draws
      // (prefetch hits and disk loads).  A tighter budget spills more, and
      // then file creation, not the store, sets the replay time.
      {"url_continuous_bounded", "url", bench::StrategyKind::kContinuous,
       /*scale=*/1.0, /*engine_threads=*/1, /*max_materialized_chunks=*/48,
       /*memory_budget_share=*/0.75, /*serving=*/false},
      // Pipeline re-materialization + batch training: every retrain
      // re-transforms the whole history (no feature cache) and runs
      // BatchTrainer on a two-thread engine.
      {"taxi_periodical", "taxi", bench::StrategyKind::kPeriodical,
       /*scale=*/1.5, /*engine_threads=*/2, /*max_materialized_chunks=*/0,
       /*memory_budget_share=*/0.0, /*serving=*/false},
      // Serving while training: serve-then-train publishes twice per chunk
      // while an open-loop client reads; unbounded RAM bypasses storage.
      {"url_serving", "url", bench::StrategyKind::kContinuous,
       /*scale=*/1.0, /*engine_threads=*/1,
       /*max_materialized_chunks=*/SIZE_MAX, /*memory_budget_share=*/0.0,
       /*serving=*/true},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Inputs GenerateInputs(const Workload& workload, uint64_t seed) {
  Inputs inputs;
  inputs.scenario = bench::MakeScenario(workload.scenario, workload.scale, seed);
  inputs.bootstrap = inputs.scenario->GenerateBootstrap();
  inputs.stream = inputs.scenario->GenerateStream();
  for (const RawChunk& chunk : inputs.bootstrap) {
    inputs.raw_bytes += chunk.ByteSize();
  }
  for (const RawChunk& chunk : inputs.stream) {
    inputs.raw_bytes += chunk.ByteSize();
    inputs.stream_rows += static_cast<int64_t>(chunk.num_rows());
  }
  if (workload.serving) {
    CDPIPE_CHECK(workload.scenario == "url") << "serving queries are URL rows";
    // Same concept as the stream, independent draws: the client asks about
    // URLs the deployment never trains on.
    UrlStreamGenerator::Config config =
        static_cast<const bench::UrlScenario&>(*inputs.scenario)
            .stream_config();
    config.records_per_chunk = kClientRowsPerRequest;
    config.seed = seed + 1000003;
    UrlStreamGenerator generator(config);
    inputs.queries = generator.Generate(64);
  }
  return inputs;
}

DeploymentConfig MakeConfig(const Workload& workload, const Inputs& inputs,
                            const std::string& spill_dir) {
  const bench::Scenario& scenario = *inputs.scenario;
  bench::RunOverrides overrides;
  overrides.max_materialized_chunks = workload.max_materialized_chunks;
  if (workload.memory_budget_share > 0.0) {
    overrides.memory_budget_bytes = static_cast<size_t>(
        static_cast<double>(inputs.raw_bytes) * workload.memory_budget_share);
    overrides.spill_dir = spill_dir;
  }

  DeploymentConfig config;
  config.strategy = workload.strategy;
  Deployment::Options& options = config.options;
  options.store.max_materialized_chunks = overrides.max_materialized_chunks;
  options.store.memory_budget_bytes = overrides.memory_budget_bytes;
  options.store.spill_dir = overrides.spill_dir;
  options.sampler = overrides.sampler;
  options.sampler_window =
      (scenario.stream_chunks() + scenario.bootstrap_chunks()) / 2;
  options.online_statistics = overrides.online_statistics;
  options.eval_window = 2000;
  options.seed = scenario.seed();
  options.engine_threads = workload.engine_threads;
  config.optimizer = scenario.DefaultOptimizer();
  config.initial_train = scenario.InitialTrainOptions();
  switch (workload.strategy) {
    case bench::StrategyKind::kContinuous:
      config.proactive_every_chunks = scenario.proactive_every_chunks();
      config.sample_chunks = scenario.proactive_sample_chunks();
      break;
    case bench::StrategyKind::kPeriodical:
      // The classic periodical platform keeps no feature cache.
      options.store.max_materialized_chunks = 0;
      config.retrain_every_chunks = scenario.retrain_every_chunks();
      config.warm_start = overrides.warm_start;
      config.retrain = scenario.RetrainOptions();
      break;
    case bench::StrategyKind::kOnline:
      CDPIPE_CHECK(false) << "no workload uses the online strategy";
  }
  return config;
}

std::unique_ptr<Deployment> MakeDeployment(const DeploymentConfig& config,
                                           const bench::Scenario& scenario) {
  if (config.strategy == bench::StrategyKind::kPeriodical) {
    PeriodicalDeployment::PeriodicalOptions periodical;
    periodical.retrain_every_chunks = config.retrain_every_chunks;
    periodical.warm_start = config.warm_start;
    periodical.retrain = config.retrain;
    return std::make_unique<PeriodicalDeployment>(
        config.options, std::move(periodical), scenario.MakePipeline(),
        scenario.MakeModel(), MakeOptimizer(config.optimizer),
        scenario.MakeMetric());
  }
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = config.proactive_every_chunks;
  continuous.sample_chunks = config.sample_chunks;
  return std::make_unique<ContinuousDeployment>(
      config.options, std::move(continuous), scenario.MakePipeline(),
      scenario.MakeModel(), MakeOptimizer(config.optimizer),
      scenario.MakeMetric());
}

}  // namespace deploybench
}  // namespace cdpipe

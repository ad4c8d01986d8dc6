// URL reputation example (the paper's first workload): classify URLs as
// malicious or legitimate from high-dimensional sparse features, keeping
// the deployed SVM fresh as the feature distribution drifts.
//
// The example compares all three deployment strategies side by side and
// prints the quality/cost numbers the paper's Figure 4 is built from.
//
//   ./url_malicious_detection [chunks] [seed]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/core/continuous_deployment.h"
#include "src/core/online_deployment.h"
#include "src/core/periodical_deployment.h"
#include "src/data/url_stream.h"

using namespace cdpipe;

namespace {

UrlStreamGenerator::Config StreamConfig(uint64_t seed) {
  UrlStreamGenerator::Config config;
  config.feature_dim = 1u << 15;
  config.initial_active_features = 400;
  config.new_features_per_chunk = 2;   // new URL features appear daily
  config.perturbed_weights_per_chunk = 40;  // gradual concept drift
  config.directional_drift_step = 0.002;    // systematic concept drift
  config.nnz_per_record = 15;
  config.records_per_chunk = 100;
  config.margin_threshold = 1.5;
  config.seed = seed;
  return config;
}

UrlPipelineConfig PipelineConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1u << 15;
  config.hash_bits = 11;
  config.l2_reg = 1e-3;  // Table 3's winner
  return config;
}

struct StrategyResult {
  std::string label;
  DeploymentReport report;
};

template <typename MakeDeployment>
StrategyResult RunOne(const std::string& label,
                      const std::vector<RawChunk>& bootstrap,
                      const std::vector<RawChunk>& stream,
                      MakeDeployment&& make) {
  std::unique_ptr<Deployment> deployment = make();
  Status init = deployment->InitialTrain(
      bootstrap,
      BatchTrainer::Options{.max_epochs = 40, .batch_size = 200,
                            .tolerance = 1e-4});
  if (!init.ok()) {
    std::fprintf(stderr, "[%s] initial training failed: %s\n", label.c_str(),
                 init.ToString().c_str());
    std::exit(1);
  }
  auto report = deployment->Run(stream);
  if (!report.ok()) {
    std::fprintf(stderr, "[%s] deployment failed: %s\n", label.c_str(),
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return {label, std::move(report).ValueOrDie()};
}

}  // namespace

int main(int argc, char** argv) {
  const size_t stream_chunks = argc > 1 ? std::atoi(argv[1]) : 300;
  const uint64_t seed = argc > 2 ? std::atoll(argv[2]) : 42;

  UrlStreamGenerator generator(StreamConfig(seed));
  const std::vector<RawChunk> bootstrap = generator.Generate(30);
  const std::vector<RawChunk> stream = generator.Generate(stream_chunks);
  std::printf(
      "URL malicious-URL detection: %zu bootstrap chunks, %zu deployment "
      "chunks, %zu records each\n",
      bootstrap.size(), stream.size(), stream[0].records.size());

  const UrlPipelineConfig pipe_config = PipelineConfig();
  auto make_model = [&] {
    return std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config));
  };
  auto make_optimizer = [] {
    return MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                          .learning_rate = 0.002});
  };

  std::vector<StrategyResult> results;
  results.push_back(RunOne("online", bootstrap, stream, [&] {
    Deployment::Options options;
    options.seed = seed;
    return std::make_unique<OnlineDeployment>(
        std::move(options), MakeUrlPipeline(pipe_config), make_model(),
        make_optimizer(), std::make_unique<MisclassificationRate>());
  }));
  results.push_back(RunOne("periodical", bootstrap, stream, [&] {
    Deployment::Options options;
    options.seed = seed;
    options.store.max_materialized_chunks = 0;  // classic platform: no cache
    PeriodicalDeployment::PeriodicalOptions periodical;
    periodical.retrain_every_chunks = 60;  // "every 10 days"
    periodical.retrain = BatchTrainer::Options{.max_epochs = 12,
                                               .batch_size = 500,
                                               .tolerance = 1e-3};
    return std::make_unique<PeriodicalDeployment>(
        std::move(options), std::move(periodical),
        MakeUrlPipeline(pipe_config), make_model(), make_optimizer(),
        std::make_unique<MisclassificationRate>());
  }));
  results.push_back(RunOne("continuous", bootstrap, stream, [&] {
    Deployment::Options options;
    options.seed = seed;
    options.sampler = SamplerKind::kTime;  // drift => favor recent data
    ContinuousDeployment::ContinuousOptions continuous;
    continuous.proactive_every_chunks = 5;  // "every 5 minutes"
    continuous.sample_chunks = 15;
    return std::make_unique<ContinuousDeployment>(
        std::move(options), std::move(continuous),
        MakeUrlPipeline(pipe_config), make_model(), make_optimizer(),
        std::make_unique<MisclassificationRate>());
  }));

  std::printf("\n%-12s %16s %14s %14s %12s\n", "strategy", "misclassification",
              "cost(s)", "work(rows)", "updates");
  for (const StrategyResult& result : results) {
    std::printf("%-12s %16.5f %14.2f %14lld %12lld\n", result.label.c_str(),
                result.report.final_error, result.report.total_seconds(),
                static_cast<long long>(result.report.total_work),
                static_cast<long long>(result.report.proactive_iterations() +
                                       result.report.retrainings));
  }
  std::printf(
      "\ncontinuous vs periodical: %.2fx less work, quality delta %+.5f\n",
      static_cast<double>(results[1].report.total_work) /
          static_cast<double>(results[2].report.total_work),
      results[1].report.final_error - results[2].report.final_error);
  return 0;
}

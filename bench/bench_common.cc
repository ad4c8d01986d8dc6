#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/common/string_util.h"

namespace cdpipe {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      // Assigning a std::string, not "1", sidesteps a GCC 12 -Wrestrict
      // false positive in basic_string::operator=(const char*).
      values_[arg] = std::string("1");
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Flags::Has(const std::string& key) const { return values_.count(key); }

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return std::move(ParseInt64(it->second)).ValueOrDie();
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return std::move(ParseDouble(it->second)).ValueOrDie();
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

BatchTrainer::Options Scenario::InitialTrainOptions() const {
  BatchTrainer::Options options;
  options.max_epochs = 40;
  options.batch_size = 200;  // mini-batch SGD over the bootstrap data
  options.tolerance = 1e-4;
  return options;
}

BatchTrainer::Options Scenario::RetrainOptions() const {
  // The paper's periodical baseline retrains to convergence over the full
  // history — the dominant cost the approach is criticized for.
  BatchTrainer::Options options;
  options.max_epochs = 12;
  options.batch_size = 500;  // mini-batch SGD to convergence
  options.tolerance = 1e-3;
  return options;
}

UrlScenario::UrlScenario(double scale, uint64_t seed) {
  seed_ = seed;
  bootstrap_chunks_ = 40;
  stream_chunks_ = static_cast<size_t>(480 * scale);
  proactive_sample_chunks_ = 20;
  retrain_every_chunks_ = 80;  // "every 10 days" at 8 chunks/day bench scale

  pipeline_config_.raw_dim = 1u << 16;
  pipeline_config_.hash_bits = 12;
  pipeline_config_.l2_reg = 1e-3;

  stream_config_.feature_dim = pipeline_config_.raw_dim;
  stream_config_.initial_active_features = 400;
  stream_config_.new_features_per_chunk = 2;
  stream_config_.perturbed_weights_per_chunk = 40;
  stream_config_.drift_step = 0.05;
  stream_config_.directional_drift_step = 0.002;
  stream_config_.nnz_per_record = 15;
  stream_config_.records_per_chunk = 100;
  stream_config_.label_noise = 0.02;
  stream_config_.margin_threshold = 1.5;
  stream_config_.missing_prob = 0.01;
  stream_config_.seed = seed;
}

std::unique_ptr<Pipeline> UrlScenario::MakePipeline() const {
  return MakeUrlPipeline(pipeline_config_);
}

std::unique_ptr<LinearModel> UrlScenario::MakeModel() const {
  return std::make_unique<LinearModel>(MakeUrlModelOptions(pipeline_config_));
}

std::unique_ptr<Metric> UrlScenario::MakeMetric() const {
  return std::make_unique<MisclassificationRate>();
}

OptimizerOptions UrlScenario::DefaultOptimizer() const {
  // Table 3: Adam with regularization 1e-3 wins on URL.
  OptimizerOptions options;
  options.kind = OptimizerKind::kAdam;
  options.learning_rate = 0.002;
  return options;
}

std::vector<RawChunk> UrlScenario::GenerateBootstrap() const {
  UrlStreamGenerator generator(stream_config_);
  return generator.Generate(bootstrap_chunks_);
}

std::vector<RawChunk> UrlScenario::GenerateStream() const {
  UrlStreamGenerator generator(stream_config_);
  generator.Generate(bootstrap_chunks_);  // skip the bootstrap prefix
  return generator.Generate(stream_chunks_);
}

TaxiScenario::TaxiScenario(double scale, uint64_t seed) {
  seed_ = seed;
  bootstrap_chunks_ = 48;
  stream_chunks_ = static_cast<size_t>(480 * scale);
  proactive_sample_chunks_ = 24;
  retrain_every_chunks_ = 96;  // "monthly" at bench scale

  stream_config_.records_per_chunk = 60;
  stream_config_.anomaly_prob = 0.01;
  stream_config_.noise_sigma = 0.25;
  stream_config_.seed = seed;
}

std::unique_ptr<Pipeline> TaxiScenario::MakePipeline() const {
  return MakeTaxiPipeline();
}

std::unique_ptr<LinearModel> TaxiScenario::MakeModel() const {
  return std::make_unique<LinearModel>(MakeTaxiModelOptions(1e-4));
}

std::unique_ptr<Metric> TaxiScenario::MakeMetric() const {
  // Labels are log1p(duration): RMSE in log space == RMSLE (§5.1).
  return std::make_unique<Rmse>();
}

OptimizerOptions TaxiScenario::DefaultOptimizer() const {
  // Table 3: RMSProp with regularization 1e-4 wins on Taxi (narrowly).
  OptimizerOptions options;
  options.kind = OptimizerKind::kRmsprop;
  options.learning_rate = 0.02;
  return options;
}

std::vector<RawChunk> TaxiScenario::GenerateBootstrap() const {
  TaxiStreamGenerator generator(stream_config_);
  return generator.Generate(bootstrap_chunks_);
}

std::vector<RawChunk> TaxiScenario::GenerateStream() const {
  TaxiStreamGenerator generator(stream_config_);
  generator.Generate(bootstrap_chunks_);
  return generator.Generate(stream_chunks_);
}

std::unique_ptr<Scenario> MakeScenario(const std::string& name, double scale,
                                       uint64_t seed) {
  if (name == "url" || name == "URL") {
    return std::make_unique<UrlScenario>(scale, seed);
  }
  if (name == "taxi" || name == "Taxi") {
    return std::make_unique<TaxiScenario>(scale, seed);
  }
  std::fprintf(stderr, "unknown scenario '%s' (use url|taxi)\n",
               name.c_str());
  std::exit(2);
}

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kOnline:
      return "online";
    case StrategyKind::kPeriodical:
      return "periodical";
    case StrategyKind::kContinuous:
      return "continuous";
  }
  return "?";
}

DeploymentReport RunDeployment(const Scenario& scenario, StrategyKind kind,
                               const RunOverrides& overrides) {
  Deployment::Options options;
  options.store.max_materialized_chunks = overrides.max_materialized_chunks;
  options.store.memory_budget_bytes = overrides.memory_budget_bytes;
  options.store.spill_dir = overrides.spill_dir;
  options.sampler = overrides.sampler;
  options.sampler_window =
      overrides.sampler_window > 0
          ? overrides.sampler_window
          : (scenario.stream_chunks() + scenario.bootstrap_chunks()) / 2;
  options.online_statistics = overrides.online_statistics;
  options.eval_window = 2000;
  options.seed = scenario.seed();

  OptimizerOptions optimizer_options = scenario.DefaultOptimizer();
  if (overrides.optimizer_kind) {
    optimizer_options.kind = *overrides.optimizer_kind;
  }
  std::unique_ptr<LinearModel> model = scenario.MakeModel();
  if (overrides.l2_reg) {
    LinearModel::Options model_options = model->options();
    model_options.l2_reg = *overrides.l2_reg;
    model = std::make_unique<LinearModel>(model_options);
  }

  std::unique_ptr<Deployment> deployment;
  switch (kind) {
    case StrategyKind::kOnline:
      deployment = std::make_unique<OnlineDeployment>(
          std::move(options), scenario.MakePipeline(), std::move(model),
          MakeOptimizer(optimizer_options), scenario.MakeMetric());
      break;
    case StrategyKind::kPeriodical: {
      // The classic periodical platform keeps no feature cache.
      options.store.max_materialized_chunks = 0;
      PeriodicalDeployment::PeriodicalOptions periodical;
      periodical.retrain_every_chunks = scenario.retrain_every_chunks();
      periodical.warm_start = overrides.warm_start;
      periodical.retrain = scenario.RetrainOptions();
      if (overrides.retrain_tolerance) {
        periodical.retrain.tolerance = *overrides.retrain_tolerance;
      }
      deployment = std::make_unique<PeriodicalDeployment>(
          std::move(options), std::move(periodical), scenario.MakePipeline(),
          std::move(model), MakeOptimizer(optimizer_options),
          scenario.MakeMetric());
      break;
    }
    case StrategyKind::kContinuous: {
      ContinuousDeployment::ContinuousOptions continuous;
      continuous.proactive_every_chunks = scenario.proactive_every_chunks();
      continuous.sample_chunks = scenario.proactive_sample_chunks();
      deployment = std::make_unique<ContinuousDeployment>(
          std::move(options), std::move(continuous), scenario.MakePipeline(),
          std::move(model), MakeOptimizer(optimizer_options),
          scenario.MakeMetric());
      break;
    }
  }
  return TrainAndRun(deployment.get(), scenario.GenerateBootstrap(),
                     scenario.InitialTrainOptions(), scenario.GenerateStream());
}

DeploymentReport TrainAndRun(Deployment* deployment,
                             const std::vector<RawChunk>& bootstrap,
                             const BatchTrainer::Options& initial_train,
                             const std::vector<RawChunk>& stream) {
  Status init = deployment->InitialTrain(bootstrap, initial_train);
  if (!init.ok()) {
    std::fprintf(stderr, "initial training failed: %s\n",
                 init.ToString().c_str());
    std::exit(1);
  }
  auto report = deployment->Run(stream);
  if (!report.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(report).ValueOrDie();
}

void WriteResultsJson(const std::string& path, const ResultSet& results) {
  std::string out = StrFormat("{\n  \"bench\": \"%s\",\n  \"label\": \"%s\",\n",
                              results.bench.c_str(), results.label.c_str());
  out += "  \"config\": {";
  for (size_t i = 0; i < results.config.size(); ++i) {
    out += StrFormat("%s\"%s\": %.17g", i > 0 ? ", " : "",
                     results.config[i].first.c_str(),
                     results.config[i].second);
  }
  out += "},\n  \"rows\": [\n";
  for (size_t i = 0; i < results.rows.size(); ++i) {
    const ResultRow& row = results.rows[i];
    if (!std::isfinite(row.value)) {
      std::fprintf(stderr, "result row '%s' is not finite\n",
                   row.name.c_str());
      std::exit(1);
    }
    out += StrFormat(
        "    {\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", "
        "\"exact\": %s}%s\n",
        row.name.c_str(), row.value, row.unit.c_str(),
        row.exact ? "true" : "false", i + 1 < results.rows.size() ? "," : "");
  }
  out += "  ]\n}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out;
  if (!file.good()) {
    std::fprintf(stderr, "failed writing '%s'\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote JSON results: %s\n", path.c_str());
}

}  // namespace bench
}  // namespace cdpipe

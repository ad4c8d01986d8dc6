// Ablation (paper §7 future work, implemented here): native concept-drift
// detection and alleviation.  A continuous deployment with a Page-Hinkley /
// DDM detector reacts to an abrupt concept change with burst proactive
// training over the freshest chunks; we measure recovery against a plain
// continuous deployment and pure online learning.
//
// Flags: --half=120  --seed=5

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/drift/drift_detector.h"

namespace cdpipe {
namespace bench {
namespace {

UrlStreamGenerator::Config StreamConfig(uint64_t seed) {
  UrlStreamGenerator::Config config;
  config.feature_dim = 1u << 14;
  config.initial_active_features = 300;
  config.new_features_per_chunk = 0;
  config.perturbed_weights_per_chunk = 0;
  config.nnz_per_record = 12;
  config.records_per_chunk = 80;
  config.margin_threshold = 1.5;
  config.seed = seed;
  return config;
}

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1u << 14;
  config.hash_bits = 10;
  return config;
}

std::vector<RawChunk> AbruptStream(uint64_t seed, size_t bootstrap,
                                   size_t half) {
  UrlStreamGenerator before(StreamConfig(seed));
  before.Generate(bootstrap);
  std::vector<RawChunk> stream = before.Generate(half);
  UrlStreamGenerator after(StreamConfig(seed + 999));
  std::vector<RawChunk> tail = after.Generate(half);
  for (size_t i = 0; i < tail.size(); ++i) {
    tail[i].id = static_cast<ChunkId>(bootstrap + half + i);
    stream.push_back(std::move(tail[i]));
  }
  return stream;
}

DeploymentReport Run(const std::vector<RawChunk>& bootstrap,
                     const std::vector<RawChunk>& stream,
                     std::unique_ptr<DriftDetector> detector, uint64_t seed) {
  Deployment::Options options;
  options.seed = seed;
  options.eval_window = 800;
  options.sampler = SamplerKind::kUniform;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 4;
  continuous.sample_chunks = 12;
  continuous.drift_detector = std::move(detector);
  continuous.drift_burst_iterations = 10;
  continuous.drift_window_chunks = 15;
  const UrlPipelineConfig pipe_config = PipeConfig();
  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), MakeUrlPipeline(pipe_config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.005}),
      std::make_unique<MisclassificationRate>());
  Status init = deployment.InitialTrain(
      bootstrap, BatchTrainer::Options{.max_epochs = 40, .batch_size = 200,
                                       .tolerance = 1e-4});
  if (!init.ok()) {
    std::fprintf(stderr, "init failed: %s\n", init.ToString().c_str());
    std::exit(1);
  }
  auto report = deployment.Run(stream);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(report).ValueOrDie();
}

std::unique_ptr<DriftDetector> MakePageHinkley() {
  PageHinkleyDetector::Options options;
  options.delta = 0.01;
  options.lambda = 0.5;  // chunk-mean signal: small threshold
  options.burn_in = 10;
  return std::make_unique<PageHinkleyDetector>(options);
}

std::unique_ptr<DriftDetector> MakeDdm() {
  DdmDetector::Options options;
  options.min_observations = 10;
  return std::make_unique<DdmDetector>(options);
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) {
  using namespace cdpipe;
  using namespace cdpipe::bench;
  Flags flags(argc, argv);
  const size_t half = static_cast<size_t>(flags.GetInt("half", 120));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 5));
  constexpr size_t kBootstrap = 20;

  UrlStreamGenerator bootstrap_generator(StreamConfig(seed));
  const std::vector<RawChunk> bootstrap =
      bootstrap_generator.Generate(kBootstrap);
  const std::vector<RawChunk> stream = AbruptStream(seed, kBootstrap, half);

  std::printf(
      "bench_ablation_drift: abrupt concept change at chunk %zu (uniform "
      "sampling; drift bursts sample the freshest 15 chunks)\n\n",
      half);
  std::printf("%-28s %10s %13s %13s %11s %8s\n", "configuration", "final",
              "win@drift+10", "win@drift+30", "proactive", "drifts");

  struct Config {
    const char* label;
    std::unique_ptr<DriftDetector> detector;
  };
  Config configs[3];
  configs[0] = {"no detector", nullptr};
  configs[1] = {"page-hinkley + burst", MakePageHinkley()};
  configs[2] = {"ddm + burst", MakeDdm()};
  for (auto& config : configs) {
    DeploymentReport report =
        Run(bootstrap, stream, std::move(config.detector), seed);
    const auto& curve = report.curve;
    const double at10 = curve[std::min(curve.size() - 1, half + 10)]
                            .windowed_error;
    const double at30 = curve[std::min(curve.size() - 1, half + 30)]
                            .windowed_error;
    std::printf("%-28s %10.4f %13.4f %13.4f %11lld %8lld\n", config.label,
                report.final_error, at10, at30,
                static_cast<long long>(report.proactive_iterations()),
                static_cast<long long>(report.drift_events()));
  }
  return 0;
}

// Checkpoint/resume example: save the full deployed state (pipeline
// statistics + model weights + optimizer adaptation state) mid-deployment,
// restore it into a fresh process-worth of objects, and verify the resumed
// deployment continues bit-identically.
//
// This works because proactive training is plain mini-batch SGD: all
// cross-iteration state is the model and the optimizer (paper §3.3), and
// the checkpoint stores both exactly (hexfloat encoding).
//
//   ./checkpoint_resume [checkpoint-path]

#include <cstdio>
#include <memory>

#include "src/core/pipeline_manager.h"
#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"

using namespace cdpipe;

namespace {

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1u << 14;
  config.hash_bits = 10;
  return config;
}

std::unique_ptr<PipelineManager> MakeManager(CostModel* cost) {
  const UrlPipelineConfig config = PipeConfig();
  return std::make_unique<PipelineManager>(
      MakeUrlPipeline(config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kAdam,
                                     .learning_rate = 0.01}),
      cost);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/cdpipe_deployment.ckpt";

  UrlStreamGenerator::Config stream_config;
  stream_config.feature_dim = 1u << 14;
  stream_config.initial_active_features = 400;
  stream_config.records_per_chunk = 60;
  stream_config.seed = 17;
  UrlStreamGenerator generator(stream_config);

  // Phase 1: run the online path for a while, accumulating pipeline
  // statistics and optimizer state, then checkpoint.
  CostModel cost_a;
  auto manager = MakeManager(&cost_a);
  for (const RawChunk& chunk : generator.Generate(50)) {
    auto features = manager->OnlineStep(chunk, nullptr);
    if (!features.ok()) {
      std::fprintf(stderr, "online step failed: %s\n",
                   features.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("deployed state after 50 chunks: %s\n",
              manager->model().ToString().c_str());

  Status save = SaveCheckpointToFile(*manager, path);
  if (!save.ok()) {
    std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", path.c_str());

  // Phase 2: "restart" — build fresh objects with the same structure and
  // restore.
  CostModel cost_b;
  auto resumed = MakeManager(&cost_b);
  Status load = LoadCheckpointFromFile(path, resumed.get());
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }
  std::printf("restored state:                 %s\n",
              resumed->model().ToString().c_str());

  // Phase 3: both managers process the same future chunks; they must agree
  // exactly — predictions, features, and post-update weights.
  bool identical = true;
  for (const RawChunk& chunk : generator.Generate(20)) {
    auto a = manager->OnlineStep(chunk, nullptr);
    auto b = resumed->OnlineStep(chunk, nullptr);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "resume diverged with an error\n");
      return 1;
    }
    if (!(manager->model().weights().values() ==
          resumed->model().weights().values()) ||
        manager->model().bias() != resumed->model().bias()) {
      identical = false;
    }
  }
  std::printf(
      "after 20 more chunks the original and the resumed deployment %s\n",
      identical ? "are bit-identical" : "DIVERGED (bug!)");
  return identical ? 0 : 1;
}

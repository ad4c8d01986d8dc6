#ifndef CDPIPE_TESTS_SERVING_SERVING_TEST_UTIL_H_
#define CDPIPE_TESTS_SERVING_SERVING_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/data/url_stream.h"
#include "src/ml/linear_model.h"
#include "src/ml/optimizer.h"
#include "src/pipeline/pipeline.h"

namespace cdpipe {
namespace serving_test {

/// A small warmed-up URL deployment state for serving tests: a pipeline
/// whose statistics have seen one chunk, a model that has taken one SGD
/// step, a stream of mutation chunks, and a fixed probe batch.  Everything
/// is seeded, so two fixtures are bit-identical.
struct ServingFixture {
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<LinearModel> model;
  std::unique_ptr<Optimizer> optimizer;
  std::vector<RawChunk> chunks;  ///< mutation stream (ids from 0)
  RawChunk probe;                ///< fixed probe batch (id 9000)
};

inline ServingFixture MakeServingFixture(size_t num_chunks = 8) {
  UrlPipelineConfig pipe_config;
  pipe_config.raw_dim = 500;
  pipe_config.hash_bits = 7;

  UrlStreamGenerator::Config stream_config;
  stream_config.feature_dim = 500;
  stream_config.initial_active_features = 80;
  stream_config.nnz_per_record = 6;
  stream_config.records_per_chunk = 16;
  stream_config.seed = 77;
  UrlStreamGenerator generator(stream_config);

  ServingFixture fixture;
  fixture.pipeline = MakeUrlPipeline(pipe_config);
  fixture.model =
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config));
  fixture.optimizer = MakeOptimizer(
      OptimizerOptions{.kind = OptimizerKind::kSgd, .learning_rate = 0.05});
  fixture.chunks = generator.Generate(num_chunks + 1);
  fixture.probe = fixture.chunks.back();
  fixture.probe.id = 9000;
  fixture.chunks.pop_back();

  // Warm up: statistics from chunk 0, one SGD step on its features.
  FeatureData warm =
      fixture.pipeline->UpdateAndTransform(fixture.chunks[0]).ValueOrDie();
  fixture.model->EnsureDim(warm.dim);
  CDPIPE_CHECK(fixture.model->Update(warm, fixture.optimizer.get()).ok());
  return fixture;
}

/// The serial reference prediction: transform the probe through `pipeline`
/// (pure path) and score each surviving row — exactly what the prediction
/// service computes against a snapshot of the same state.
inline std::vector<double> SerialScores(const Pipeline& pipeline,
                                        const LinearModel& model,
                                        const RawChunk& probe) {
  FeatureData features = pipeline.Transform(probe).ValueOrDie();
  std::vector<double> scores;
  model.PredictBatch(features, &scores);
  return scores;
}

}  // namespace serving_test
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_SERVING_SERVING_TEST_UTIL_H_

// A pipeline's clones share its scratch pool (Pipeline::Clone): a snapshot's
// first transform runs on buffers and memos the live pipeline warmed.  The
// memos check whose state they describe, so a clone must still serve
// exactly its own statistics: its Transform is held hexfloat-exactly to
// the same statistics loaded into a fresh pipeline with a pool of its own,
// after the live pipeline moved on through the shared scratch, and while
// it does so on another thread.

#include <atomic>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/io/serialization.h"
#include "src/ml/linear_model.h"
#include "src/ml/optimizer.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace serving {
namespace {

using testing::HexFloatText;

/// A pipeline factory and a seeded stream for it.
struct Lineage {
  std::function<std::unique_ptr<Pipeline>()> make_pipeline;
  std::vector<RawChunk> chunks;
};

/// URL at the bench's raw dim (2^16): the scaler's σ memo spans 2^16
/// cells, and 300-row chunks are dense enough (4,500 entries >= 2^16/16)
/// that the hasher memo engages too.
Lineage UrlLineage(size_t num_chunks, size_t rows_per_chunk = 300) {
  UrlPipelineConfig pipe;
  pipe.raw_dim = 1u << 16;
  pipe.hash_bits = 12;
  UrlStreamGenerator::Config config;
  config.feature_dim = pipe.raw_dim;
  config.initial_active_features = 400;
  config.nnz_per_record = 15;
  config.records_per_chunk = rows_per_chunk;
  config.missing_prob = 0.01;
  config.seed = 42;
  UrlStreamGenerator generator(config);
  return Lineage{[pipe] { return MakeUrlPipeline(pipe); },
                 generator.Generate(num_chunks)};
}

/// Taxi: the table-mode scaler memo, one cell per scaled column.
Lineage TaxiLineage(size_t num_chunks) {
  TaxiStreamGenerator::Config config;
  config.records_per_chunk = 60;
  config.seed = 42;
  TaxiStreamGenerator generator(config);
  return Lineage{[] { return MakeTaxiPipeline(); },
                 generator.Generate(num_chunks)};
}

/// `pipeline`'s statistics loaded into a fresh pipeline of the lineage,
/// which has its own (cold) scratch pool.
std::unique_ptr<Pipeline> FreshCopy(const Pipeline& pipeline,
                                    const Lineage& lineage) {
  std::stringstream state;
  Serializer out(&state);
  CDPIPE_CHECK(pipeline.SaveState(&out).ok());
  std::unique_ptr<Pipeline> fresh = lineage.make_pipeline();
  Deserializer in(&state);
  CDPIPE_CHECK(fresh->LoadState(&in).ok());
  return fresh;
}

std::string Hex(const Pipeline& pipeline, const RawChunk& chunk) {
  return HexFloatText(pipeline.Transform(chunk).ValueOrDie());
}

void ExpectCloneServesItsOwnStatistics(const Lineage& lineage) {
  ASSERT_GE(lineage.chunks.size(), 6u);
  const RawChunk& probe = lineage.chunks.back();
  std::unique_ptr<Pipeline> live = lineage.make_pipeline();

  // 1. Warm the live pipeline's scratch: statistics from three chunks,
  //    memos filled by a transform.
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(live->UpdateAndTransform(lineage.chunks[i]).ok());
  }
  ASSERT_TRUE(live->Transform(probe).ok());

  // 2. Clone it; the reference holds the same statistics on its own pool.
  std::unique_ptr<Pipeline> clone = live->Clone();
  std::unique_ptr<Pipeline> reference = FreshCopy(*clone, lineage);

  // 3. The live pipeline folds the next chunk in on the shared scratch.
  ASSERT_TRUE(live->UpdateAndTransform(lineage.chunks[3]).ok());

  // 4. The clone's first transform serves the clone's statistics, not the
  //    ones the live pipeline last memoized.
  const std::string served = Hex(*clone, probe);
  EXPECT_EQ(served, Hex(*reference, probe));
  EXPECT_NE(served, Hex(*live, probe)) << "the update moved no statistic";

  // Alternating on the one pool keeps each side exact.
  ASSERT_TRUE(live->UpdateAndTransform(lineage.chunks[4]).ok());
  EXPECT_EQ(Hex(*clone, probe), Hex(*reference, probe));
  EXPECT_EQ(Hex(*live, probe), Hex(*FreshCopy(*live, lineage), probe));
  EXPECT_EQ(Hex(*clone, lineage.chunks[4]),
            Hex(*reference, lineage.chunks[4]));
}

TEST(SharedScratchTest, UrlCloneServesItsOwnStatistics) {
  ExpectCloneServesItsOwnStatistics(UrlLineage(/*num_chunks=*/6));
}

TEST(SharedScratchTest, TaxiCloneServesItsOwnStatistics) {
  ExpectCloneServesItsOwnStatistics(TaxiLineage(/*num_chunks=*/6));
}

TEST(SharedScratchTest, ServiceWorkerTransformsWhileDeploymentRepublishes) {
  // One service worker answers requests through each new epoch's clone
  // while the deployment thread folds chunks into the live pipeline and
  // republishes: both lease scratches from the one shared pool.
  constexpr uint64_t kEpochs = 12;
  const Lineage lineage = UrlLineage(kEpochs + 2, /*rows_per_chunk=*/100);
  const RawChunk& probe = lineage.chunks.back();
  std::unique_ptr<Pipeline> live = lineage.make_pipeline();
  UrlPipelineConfig pipe;
  pipe.raw_dim = 1u << 16;
  pipe.hash_bits = 12;
  LinearModel model(MakeUrlModelOptions(pipe));
  std::unique_ptr<Optimizer> optimizer = MakeOptimizer(
      OptimizerOptions{.kind = OptimizerKind::kSgd, .learning_rate = 0.05});

  SnapshotPublisher publisher;
  PredictionService::Options options;
  options.num_threads = 1;
  PredictionService service(&publisher, options);
  ASSERT_TRUE(service.Start().ok());

  // expected[e] is written before epoch e is published; the publish orders
  // it before any response that quotes e.
  std::vector<std::vector<double>> expected(kEpochs + 1);
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> answered{0};
  std::thread client([&] {
    auto ask = [&] {
      Result<PredictionService::Response> response = service.Predict(probe);
      if (!response.ok()) return;  // nothing published yet
      answered.fetch_add(1, std::memory_order_relaxed);
      if (response->epoch < 1 || response->epoch > kEpochs ||
          response->scores != expected[response->epoch]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    };
    while (!done.load(std::memory_order_acquire)) ask();
    ask();  // one guaranteed request against the final epoch
  });

  for (uint64_t e = 1; e <= kEpochs; ++e) {
    // Serve-then-train: statistics update, publish, then the SGD step.
    FeatureData features =
        live->UpdateAndTransform(lineage.chunks[e - 1]).ValueOrDie();
    std::unique_ptr<Pipeline> reference = FreshCopy(*live, lineage);
    FeatureData probe_features = reference->Transform(probe).ValueOrDie();
    model.EnsureDim(probe_features.dim);
    model.PredictBatch(probe_features, &expected[e]);
    ASSERT_EQ(publisher.PublishFrom(*live, model), e);
    model.EnsureDim(features.dim);
    ASSERT_TRUE(model.Update(features, optimizer.get()).ok());
  }
  done.store(true, std::memory_order_release);
  client.join();
  service.Stop();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(answered.load(), 1);
}

}  // namespace
}  // namespace serving
}  // namespace cdpipe

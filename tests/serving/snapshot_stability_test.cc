// TSan-verified bit-stability of concurrent serving: N reader threads
// hammer the prediction service while the trainer publishes epochs at max
// rate.  Every response must be internally consistent (one epoch's
// pipeline statistics + model weights + compiled plan), its scores must be
// bit-identical to a serial predict against the state published as that
// epoch, and no reader may ever observe an epoch regression or a torn
// snapshot.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"
#include "tests/serving/serving_test_util.h"

namespace cdpipe {
namespace serving {
namespace {

using serving_test::MakeServingFixture;
using serving_test::SerialScores;
using serving_test::ServingFixture;

TEST(SnapshotStabilityTest, ReadersSeeBitIdenticalEpochsUnderMaxRatePublish) {
  constexpr int kReaders = 4;
  constexpr uint64_t kEpochs = 40;

  ServingFixture fixture = MakeServingFixture(/*num_chunks=*/8);
  SnapshotPublisher publisher;
  PredictionService service(&publisher, PredictionService::Options{});

  // expected[e] is written by the trainer BEFORE epoch e is published; the
  // publish's release store orders it before any reader that observes e.
  std::vector<std::vector<double>> expected(kEpochs + 1);
  std::atomic<bool> done{false};

  std::thread trainer([&] {
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      // Mutate the live state between epochs: every epoch takes one SGD
      // step, every third also folds a chunk into the pipeline statistics
      // (so the run exercises both the deep-clone and the shared-pipeline
      // publish paths).
      if (e > 1) {
        if (e % 3 == 0) {
          const RawChunk& chunk =
              fixture.chunks[1 + (e / 3) % (fixture.chunks.size() - 1)];
          ASSERT_TRUE(fixture.pipeline->UpdateAndTransform(chunk).ok());
        }
        FeatureData features =
            fixture.pipeline->Transform(fixture.chunks[1]).ValueOrDie();
        ASSERT_TRUE(
            fixture.model->Update(features, fixture.optimizer.get()).ok());
      }
      expected[e] =
          SerialScores(*fixture.pipeline, *fixture.model, fixture.probe);
      ASSERT_EQ(publisher.PublishFrom(*fixture.pipeline, *fixture.model), e);
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      SnapshotReader reader(&publisher);
      uint64_t last_epoch = 0;
      auto hammer = [&] {
        Result<PredictionService::Response> response =
            service.PredictWith(&reader, fixture.probe);
        if (!response.ok()) return;  // nothing published yet
        reads.fetch_add(1, std::memory_order_relaxed);
        if (response->epoch < last_epoch ||
            response->epoch > kEpochs ||
            response->scores != expected[response->epoch]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = response->epoch;
      };
      while (!done.load(std::memory_order_acquire)) hammer();
      hammer();  // one guaranteed read of the final epoch
      EXPECT_EQ(reader.stale_reads(), 0u);
      EXPECT_EQ(reader.torn_reads(), 0u);
    });
  }
  trainer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(reads.load(), static_cast<uint64_t>(kReaders));
  EXPECT_EQ(publisher.epoch(), kEpochs);
}

TEST(SnapshotStabilityTest, QueuedRequestLoopStableUnderPublishStorm) {
  ServingFixture fixture = MakeServingFixture(/*num_chunks=*/4);
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  PredictionService::Options options;
  options.num_threads = 3;
  PredictionService service(&publisher, options);
  ASSERT_TRUE(service.Start().ok());

  std::atomic<bool> done{false};
  std::thread trainer([&] {
    for (int e = 0; e < 60; ++e) {
      FeatureData features =
          fixture.pipeline->Transform(fixture.chunks[1]).ValueOrDie();
      ASSERT_TRUE(
          fixture.model->Update(features, fixture.optimizer.get()).ok());
      publisher.PublishFrom(*fixture.pipeline, *fixture.model);
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        Result<PredictionService::Response> response =
            service.Predict(fixture.probe);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Workers may rotate, but the publisher's epoch counter the
        // responses quote can never exceed the published epoch, and every
        // response must carry exactly one score per probe row.
        if (response->epoch < 1 ||
            response->scores.size() != fixture.probe.num_rows()) {
          failures.fetch_add(1);
        }
        if (response->epoch > last_epoch) last_epoch = response->epoch;
      }
    });
  }
  trainer.join();
  for (std::thread& t : clients) t.join();
  service.Stop();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace serving
}  // namespace cdpipe

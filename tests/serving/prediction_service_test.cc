// Unit tests of the prediction front-end: lifecycle, the queued and inline
// request paths, bit-equality with the serial reference, backpressure, and
// error accounting.

#include "src/serving/prediction_service.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/testing/fault_injector.h"
#include "tests/serving/serving_test_util.h"

namespace cdpipe {
namespace serving {
namespace {

using serving_test::MakeServingFixture;
using serving_test::SerialScores;
using serving_test::ServingFixture;

TEST(PredictionServiceTest, UnavailableBeforeStart) {
  SnapshotPublisher publisher;
  PredictionService service(&publisher, PredictionService::Options{});
  RawChunk chunk;
  chunk.records.push_back("1 0:1.0");
  Result<PredictionService::Response> response = service.Predict(chunk);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
}

TEST(PredictionServiceTest, UnavailableBeforeFirstPublish) {
  SnapshotPublisher publisher;
  PredictionService service(&publisher, PredictionService::Options{});
  ASSERT_TRUE(service.Start().ok());
  RawChunk chunk;
  chunk.records.push_back("1 0:1.0");
  Result<PredictionService::Response> response = service.Predict(chunk);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.request_errors(), 1u);
  service.Stop();
}

TEST(PredictionServiceTest, DoubleStartFailsAndStopIsIdempotent) {
  SnapshotPublisher publisher;
  PredictionService service(&publisher, PredictionService::Options{});
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
  service.Stop();
  service.Stop();
  EXPECT_FALSE(service.running());
}

TEST(PredictionServiceTest, QueuedPredictionMatchesSerialReference) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  PredictionService service(&publisher, PredictionService::Options{});
  ASSERT_TRUE(service.Start().ok());
  Result<PredictionService::Response> response =
      service.Predict(fixture.probe);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->epoch, 1u);
  EXPECT_GT(response->request_id, 0);
  EXPECT_EQ(response->scores,
            SerialScores(*fixture.pipeline, *fixture.model, fixture.probe));
  EXPECT_EQ(response->labels.size(), response->scores.size());
  EXPECT_EQ(response->true_labels.size(), response->scores.size());
  for (size_t i = 0; i < response->scores.size(); ++i) {
    EXPECT_EQ(response->labels[i],
              response->scores[i] >= 0.0 ? 1.0 : -1.0);
  }
  EXPECT_GE(response->latency_seconds, 0.0);
  service.Stop();
}

TEST(PredictionServiceTest, SingleRecordPredictionMatchesBatchRow) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  PredictionService service(&publisher, PredictionService::Options{});
  ASSERT_TRUE(service.Start().ok());
  Result<PredictionService::Response> batch = service.Predict(fixture.probe);
  ASSERT_TRUE(batch.ok());
  // Single-record requests reproduce the batch rows one by one (row order
  // is preserved and no probe row is dropped by the URL pipeline).
  ASSERT_EQ(batch->scores.size(), fixture.probe.num_rows());
  for (size_t r = 0; r < fixture.probe.num_rows(); ++r) {
    Result<PredictionService::Response> one =
        service.PredictRecord(fixture.probe.records[r]);
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one->scores.size(), 1u);
    EXPECT_EQ(one->scores[0], batch->scores[r]) << "row " << r;
  }
  service.Stop();
}

TEST(PredictionServiceTest, ConcurrentClientsUnderTinyQueueAllAnswered) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  PredictionService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 1;  // force producer backpressure
  PredictionService service(&publisher, options);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  std::vector<double> expected =
      SerialScores(*fixture.pipeline, *fixture.model, fixture.probe);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Result<PredictionService::Response> response =
            service.Predict(fixture.probe);
        if (!response.ok() || response->scores != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(service.requests_served(),
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(service.request_errors(), 0u);
  service.Stop();
}

TEST(PredictionServiceTest, AdmissionTimeoutShedsInsteadOfBlocking) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  PredictionService::Options options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.admission_timeout_seconds = 0.0;  // try-admit: full queue = shed
  PredictionService service(&publisher, options);
  ASSERT_TRUE(service.Start().ok());

  const int64_t shed_counter_before =
      obs::MetricsRegistry::Global().GetCounter("serving.shed")->Value();
  const std::vector<double> expected =
      SerialScores(*fixture.pipeline, *fixture.model, fixture.probe);

  // Hammer the single slot from four clients until someone is turned
  // away.  Every response is either a full correct answer or an explicit
  // Unavailable shed — never a hang, never a wrong score.
  constexpr int kClients = 4;
  constexpr int kMaxPerClient = 10000;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> shed_count{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kMaxPerClient; ++i) {
        Result<PredictionService::Response> response =
            service.Predict(fixture.probe);
        if (response.ok()) {
          ok_count.fetch_add(1);
          if (response->scores != expected) wrong.fetch_add(1);
        } else if (response.status().code() == StatusCode::kUnavailable) {
          shed_count.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
        if (shed_count.load() > 0 && i > 8) break;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Stop();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(service.requests_shed(), 0u);
  // Unified backpressure accounting: the service-level counter, the
  // serving.shed metric, and the observed rejections all agree.
  EXPECT_EQ(service.requests_shed(), shed_count.load());
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("serving.shed")->Value() -
          shed_counter_before,
      static_cast<int64_t>(shed_count.load()));
  EXPECT_GE(service.requests_served(), ok_count.load());
  // Sheds are rejections, not errors.
  EXPECT_EQ(service.request_errors(), 0u);
}

TEST(PredictionServiceTest, NegativeTimeoutPreservesBlockingBehavior) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  PredictionService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 1;
  options.admission_timeout_seconds = -1.0;  // legacy: block until a slot
  PredictionService service(&publisher, options);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        if (!service.Predict(fixture.probe).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.requests_shed(), 0u);
}

TEST(PredictionServiceTest, InjectedFaultIsCountedAsRequestError) {
  ServingFixture fixture = MakeServingFixture();
  SnapshotPublisher publisher;
  publisher.PublishFrom(*fixture.pipeline, *fixture.model);

  PredictionService service(&publisher, PredictionService::Options{});
  ASSERT_TRUE(service.Start().ok());
  {
    testing::ScopedFaultScript script(
        {{"serving.request", testing::FaultRule::FirstN(1)}});
    Result<PredictionService::Response> failed =
        service.Predict(fixture.probe);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(service.request_errors(), 1u);
  // The loop recovers: the next request is healthy.
  Result<PredictionService::Response> ok_response =
      service.Predict(fixture.probe);
  EXPECT_TRUE(ok_response.ok());
  service.Stop();
}

TEST(PredictionServiceTest, ServingMetricsAreRegistered) {
  SnapshotPublisher publisher;
  PredictionService service(&publisher, PredictionService::Options{});
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snapshot.CounterValueOr("serving.requests", -1), 0);
  EXPECT_GE(snapshot.CounterValueOr("serving.errors", -1), 0);
  EXPECT_GE(snapshot.CounterValueOr("serving.stale_reads", -1), 0);
  EXPECT_GE(snapshot.CounterValueOr("serving.torn_reads", -1), 0);
  EXPECT_GE(snapshot.CounterValueOr("serving.publishes", -1), 0);
  // Backpressure counters mirror the ingest-side naming scheme
  // (ingest.shed / ingest.queue_depth / ingest.queue_high_watermark).
  EXPECT_GE(snapshot.CounterValueOr("serving.shed", -1), 0);
}

}  // namespace
}  // namespace serving
}  // namespace cdpipe

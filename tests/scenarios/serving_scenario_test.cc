// Serve-under-fault scenarios: the prediction front-end hammered while the
// deployment loop trains under injected faults — epoch swaps under load,
// checkpoint restore mid-serve, and a wedged request loop flipping /readyz.
// Every scenario asserts the serving invariants: no torn reads, no epoch
// regressions (bounded staleness), no request errors against a healthy
// snapshot, and degradation accounted in the DeploymentReport.

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/cost_model.h"
#include "src/core/pipeline_manager.h"
#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"
#include "tests/scenarios/scenario_runner.h"

namespace cdpipe {
namespace testing {
namespace {

TEST(ServingScenarioTest, ServeEvalFaultFreeBitIdenticalToInLoop) {
  Scenario in_loop;
  in_loop.name = "serving-control-in-loop";
  const ScenarioResult baseline = RunScenario(in_loop);
  ASSERT_TRUE(baseline.ok()) << baseline.status.ToString();

  Scenario served = in_loop;
  served.name = "serving-control-serve-eval";
  served.attach_serving = true;
  served.serve_evaluation = true;
  const ScenarioResult result = RunScenario(served);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  // Routing evaluation through the service must not move a single bit of
  // the deployed state or the quality curve.
  EXPECT_EQ(result.fingerprint, baseline.fingerprint);
  EXPECT_EQ(result.report.final_error, baseline.report.final_error);
  EXPECT_EQ(result.report.serving_requests(),
            static_cast<int64_t>(served.num_chunks));
  EXPECT_EQ(result.report.serving_eval_fallbacks(), 0);
  EXPECT_EQ(result.report.serving_stale_reads, 0);
  EXPECT_GT(result.report.snapshot_publishes(), 0);
}

TEST(ServingScenarioTest, ServeEvalFaultOnRequestFallsBackAndDegrades) {
  Scenario scenario;
  scenario.name = "serving-request-fault";
  scenario.attach_serving = true;
  scenario.serve_evaluation = true;
  // Fail the first two serve-eval requests: the loop must fall back to the
  // in-loop evaluate — same observations, no hole in the curve — and the
  // report must account the degradation.
  scenario.faults = {{"serving.request", FaultRule::FirstN(2)}};
  const ScenarioResult result = RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.report.serving_eval_fallbacks(), 2);
  EXPECT_EQ(result.report.serving_errors(), 2);
  EXPECT_GE(result.report.degraded_events, 2);
  EXPECT_EQ(result.report.serving_stale_reads, 0);

  // The curve lost nothing: observations equal the fault-free control's.
  Scenario control;
  const ScenarioResult baseline = RunScenario(control);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(result.report.curve.empty());
  EXPECT_EQ(result.report.curve.back().observations,
            baseline.report.curve.back().observations);
  // The fallback path evaluates the identical (score, label) sequence, so
  // even the faulted run's quality is bit-identical.
  EXPECT_EQ(result.fingerprint, baseline.fingerprint);
  EXPECT_EQ(result.report.final_error, baseline.report.final_error);
}

TEST(ServingScenarioTest, SwapUnderLoadWithSlowEngineTasks) {
  // Slow down engine tasks (proactive training fan-out) so publishes land
  // while requests are in flight, then hammer the service from concurrent
  // clients for the whole run.
  Scenario scenario;
  scenario.name = "serving-swap-under-load";
  scenario.engine_threads = 2;
  scenario.serving_threads = 3;
  // Force re-materialization misses so proactive training fans real
  // recompute tasks through the engine, where the delay site lives.
  scenario.store.max_materialized_chunks = 4;
  FaultRule slow = FaultRule::EveryN(3);
  slow.delay_seconds = 0.01;
  scenario.faults = {{"engine.slow_task", slow}};

  std::unique_ptr<Deployment> deployment = MakeScenarioDeployment(scenario);
  serving::SnapshotPublisher publisher;
  serving::PredictionService::Options service_options;
  service_options.num_threads = scenario.serving_threads;
  service_options.deployment_id = deployment->deployment_id();
  obs::Counter* requests =
      obs::MetricsRegistry::Global().GetCounter("serving.requests");
  const int64_t requests_before = requests->Value();
  serving::PredictionService service(&publisher, service_options);
  deployment->AttachServing(&publisher, &service, /*serve_evaluation=*/false);
  ASSERT_TRUE(service.Start().ok());

  const std::vector<RawChunk> stream = MakeScenarioStream(scenario.num_chunks);
  RawChunk probe = stream.front();
  probe.id = 9100;

  // Clients launch first and confirm they are spinning before training
  // starts, so the request storm genuinely overlaps the publish storm.
  std::atomic<bool> run_done{false};
  std::atomic<int> clients_started{0};
  constexpr int kClients = 3;
  std::atomic<int> violations{0};
  std::atomic<uint64_t> ok_requests{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      bool saw_healthy = false;
      uint64_t last_epoch = 0;
      clients_started.fetch_add(1);
      while (!run_done.load(std::memory_order_acquire)) {
        const uint64_t epoch_at_submit = publisher.epoch();
        Result<serving::PredictionService::Response> response =
            service.Predict(probe);
        if (!response.ok()) {
          // Only legal before the first publish: once a healthy snapshot
          // exists the request loop must never error.
          if (saw_healthy) violations.fetch_add(1);
          continue;
        }
        saw_healthy = true;
        ok_requests.fetch_add(1, std::memory_order_relaxed);
        // Bounded staleness: a response can never be older than the epoch
        // already published when the request was submitted, and epochs can
        // never regress across a client's consecutive requests.
        if (response->epoch < epoch_at_submit) violations.fetch_add(1);
        if (response->epoch < last_epoch) violations.fetch_add(1);
        last_epoch = response->epoch;
        if (response->scores.size() != probe.num_rows()) {
          violations.fetch_add(1);
        }
      }
    });
  }
  while (clients_started.load() < kClients) std::this_thread::yield();

  Status run_status = Status::OK();
  DeploymentReport report;
  std::thread run_thread([&] {
    ScopedFaultScript script(scenario.faults);
    Result<DeploymentReport> run_report = deployment->Run(stream);
    if (run_report.ok()) {
      report = *std::move(run_report);
    } else {
      run_status = run_report.status();
    }
    run_done.store(true, std::memory_order_release);
  });
  run_thread.join();
  for (std::thread& t : clients) t.join();
  service.Stop();

  ASSERT_TRUE(run_status.ok()) << run_status.ToString();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(ok_requests.load(), 0u);
  EXPECT_GT(report.faults_injected(), 0) << "slow-task site never fired";
  EXPECT_EQ(report.serving_stale_reads, 0);
  EXPECT_GT(report.snapshot_publishes(), 0);
  // Requests can straddle the report's metrics window (some complete after
  // Run cuts it), so accounting is asserted on the counter's growth over
  // the whole test.
  EXPECT_GE(requests->Value() - requests_before,
            static_cast<int64_t>(ok_requests.load()));
}

TEST(ServingScenarioTest, CheckpointRestoreMidServe) {
  // A restore atomically replaces pipeline + model + optimizer and must
  // auto-publish: requests racing the restore always see either the old or
  // the new epoch, never a mix and never an error.
  UrlPipelineConfig pipe_config;
  pipe_config.raw_dim = 600;
  pipe_config.hash_bits = 7;
  UrlStreamGenerator::Config stream_config;
  stream_config.feature_dim = 600;
  stream_config.initial_active_features = 90;
  stream_config.nnz_per_record = 6;
  stream_config.records_per_chunk = 16;
  stream_config.seed = 5;
  UrlStreamGenerator generator(stream_config);
  const std::vector<RawChunk> chunks = generator.Generate(4);

  CostModel cost;
  PipelineManager manager(
      MakeUrlPipeline(pipe_config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(pipe_config)),
      MakeOptimizer(OptimizerOptions{.kind = OptimizerKind::kSgd,
                                     .learning_rate = 0.05}),
      &cost);
  PrequentialEvaluator evaluator(std::make_unique<MisclassificationRate>(),
                                 1000);
  for (const RawChunk& chunk : chunks) {
    ASSERT_TRUE(manager.OnlineStep(chunk, &evaluator).ok());
  }
  std::ostringstream checkpoint;
  ASSERT_TRUE(SaveCheckpoint(manager, &checkpoint).ok());

  serving::SnapshotPublisher publisher;
  manager.AttachPublisher(&publisher);
  manager.PublishSnapshot();
  serving::PredictionService::Options service_options;
  service_options.num_threads = 2;
  obs::Counter* errors =
      obs::MetricsRegistry::Global().GetCounter("serving.errors");
  const int64_t errors_before = errors->Value();
  serving::PredictionService service(&publisher, service_options);
  ASSERT_TRUE(service.Start().ok());

  RawChunk probe = chunks.front();
  probe.id = 9200;

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        Result<serving::PredictionService::Response> response =
            service.Predict(probe);
        if (!response.ok() || response->epoch < last_epoch ||
            response->scores.size() != probe.num_rows()) {
          violations.fetch_add(1);
          continue;
        }
        last_epoch = response->epoch;
      }
    });
  }

  // Restore the checkpoint repeatedly mid-serve (each Restore swaps the
  // full deployed state and auto-publishes a fresh epoch), interleaved
  // with live training steps.
  const uint64_t epoch_before = publisher.epoch();
  for (int round = 0; round < 5; ++round) {
    std::istringstream reader(checkpoint.str());
    ASSERT_TRUE(LoadCheckpoint(&reader, &manager).ok());
    ASSERT_TRUE(manager.OnlineStep(chunks[round % chunks.size()], &evaluator)
                    .ok());
    manager.PublishSnapshot();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  service.Stop();

  EXPECT_EQ(violations.load(), 0);
  // 5 restores + 5 explicit post-step publishes landed on top.
  EXPECT_GE(publisher.epoch(), epoch_before + 10);
  EXPECT_EQ(errors->Value() - errors_before, 0);
}

TEST(ServingScenarioTest, WedgedRequestLoopFlipsReadyz) {
  Scenario scenario;
  std::unique_ptr<Deployment> deployment = MakeScenarioDeployment(scenario);
  serving::SnapshotPublisher publisher;
  serving::PredictionService::Options service_options;
  service_options.num_threads = 1;
  serving::PredictionService service(&publisher, service_options);
  deployment->AttachServing(&publisher, &service, false);
  deployment->PublishSnapshot();
  ASSERT_TRUE(service.Start().ok());

  obs::Watchdog::Options watchdog_options;
  watchdog_options.stall_deadline_seconds = 0.05;
  obs::Watchdog watchdog(watchdog_options);
  obs::ObsServer::Options server_options;
  server_options.watchdog = &watchdog;
  obs::ObsServer server(server_options);

  RawChunk probe = MakeScenarioStream(1).front();
  probe.id = 9300;

  // Wedge the single request-loop worker for 0.4s — busy-but-silent well
  // past the watchdog deadline.
  FaultRule wedge = FaultRule::FirstN(1);
  wedge.delay_seconds = 0.4;
  ScopedFaultScript script({{"serving.slow_request", wedge}});

  std::thread client([&] {
    Result<serving::PredictionService::Response> response =
        service.Predict(probe);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  watchdog.PollOnce();
  EXPECT_FALSE(watchdog.ready()) << "wedged serving loop must flip readiness";
  const std::string stalled_readyz =
      server.HandleRequest("GET /readyz HTTP/1.0\r\n\r\n");
  EXPECT_NE(stalled_readyz.find("503"), std::string::npos) << stalled_readyz;
  // The 503 body is the plaintext reason, naming the wedged subsystem.
  EXPECT_NE(stalled_readyz.find("not ready:"), std::string::npos)
      << stalled_readyz;
  EXPECT_NE(stalled_readyz.find("stalled=serving"), std::string::npos)
      << stalled_readyz;

  client.join();
  // The delayed request completed (and beat): readiness restores.  The
  // join only guarantees the promise was set — the worker's busy scope may
  // release a beat later, so poll until the watchdog observes it.
  for (int i = 0; i < 100 && !watchdog.ready(); ++i) {
    watchdog.PollOnce();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(watchdog.ready());
  const std::string healthy_readyz =
      server.HandleRequest("GET /readyz HTTP/1.0\r\n\r\n");
  EXPECT_NE(healthy_readyz.find("\"ready\":true"), std::string::npos)
      << healthy_readyz;
  service.Stop();
}

}  // namespace
}  // namespace testing
}  // namespace cdpipe

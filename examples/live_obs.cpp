// Live observability: run a continuous deployment with the embedded
// observability server attached and keep serving while it works.
//
//   ./live_obs --port 0 --serve_seconds 5 --port_file /tmp/obs_port
//
// While the deployment replays its stream, poke the plane from another
// terminal:
//
//   curl http://127.0.0.1:$(cat /tmp/obs_port)/metrics    # Prometheus text
//   curl http://127.0.0.1:$(cat /tmp/obs_port)/healthz    # liveness
//   curl http://127.0.0.1:$(cat /tmp/obs_port)/readyz     # watchdog-driven
//   curl "http://127.0.0.1:$(cat /tmp/obs_port)/events?n=20"
//   curl http://127.0.0.1:$(cat /tmp/obs_port)/trace      # Chrome trace
//
// --port 0 binds an ephemeral port; the resolved port is printed on stdout
// and, once the initial training has journaled its bootstrap ingests,
// written to --port_file (for scripted smoke tests: a client that waits for
// the file finds events in /events).  The process exits 0 after the
// deployment finished AND --serve_seconds elapsed.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "src/core/continuous_deployment.h"
#include "src/data/url_stream.h"
#include "src/obs/event_journal.h"
#include "src/obs/health.h"
#include "src/obs/obs_server.h"
#include "src/obs/trace.h"

using namespace cdpipe;

int main(int argc, char** argv) {
  int port = 0;
  double serve_seconds = 5.0;
  const char* port_file = nullptr;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--port") == 0) {
      port = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--serve_seconds") == 0) {
      serve_seconds = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--port_file") == 0) {
      port_file = argv[i + 1];
    }
  }

  // Tracing on so /trace has spans to show.
  obs::Tracer::Global().Enable();

  // The observability plane: watchdog polls the global health registry,
  // the server exposes the global metrics/journal/health state.
  obs::Watchdog::Options watchdog_options;
  watchdog_options.stall_deadline_seconds = 5.0;
  obs::Watchdog watchdog(watchdog_options);
  watchdog.Start();

  obs::ObsServer::Options server_options;
  server_options.port = static_cast<uint16_t>(port);
  server_options.watchdog = &watchdog;
  obs::ObsServer server(server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "obs server failed to start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("obs server listening on http://127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  // The workload: the quickstart deployment, instrumented end to end.
  UrlStreamGenerator::Config stream_config;
  stream_config.feature_dim = 1u << 14;
  stream_config.initial_active_features = 1000;
  stream_config.records_per_chunk = 50;
  stream_config.seed = 1;
  UrlStreamGenerator generator(stream_config);
  const std::vector<RawChunk> bootstrap = generator.Generate(20);
  const std::vector<RawChunk> stream = generator.Generate(200);

  UrlPipelineConfig pipeline_config;
  pipeline_config.raw_dim = stream_config.feature_dim;
  pipeline_config.hash_bits = 10;
  std::unique_ptr<Pipeline> pipeline = MakeUrlPipeline(pipeline_config);
  auto model = std::make_unique<LinearModel>(
      MakeUrlModelOptions(pipeline_config));
  auto optimizer = MakeOptimizer(OptimizerOptions{
      .kind = OptimizerKind::kAdam, .learning_rate = 0.02});

  Deployment::Options options;
  options.sampler = SamplerKind::kTime;
  options.store.max_materialized_chunks = 100;
  options.seed = 7;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = 5;
  continuous.sample_chunks = 10;
  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), std::move(pipeline),
      std::move(model), std::move(optimizer),
      std::make_unique<MisclassificationRate>());

  Status init = deployment.InitialTrain(bootstrap, BatchTrainer::Options{
                                                       .max_epochs = 15,
                                                       .batch_size = 0,
                                                       .tolerance = 1e-4,
                                                   });
  if (!init.ok()) {
    std::fprintf(stderr, "initial training failed: %s\n",
                 init.ToString().c_str());
    return 1;
  }
  if (port_file != nullptr) {
    std::FILE* f = std::fopen(port_file, "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }

  const auto serve_until =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(serve_seconds * 1000));

  Result<DeploymentReport> report = deployment.Run(stream);
  if (!report.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->Summary().c_str());
  std::printf("journal: %llu events appended, %llu dropped\n",
              static_cast<unsigned long long>(
                  obs::EventJournal::Global().TotalAppended()),
              static_cast<unsigned long long>(
                  obs::EventJournal::Global().TotalDropped()));
  std::fflush(stdout);

  // Keep the endpoints up so scripted clients can scrape the finished run.
  while (std::chrono::steady_clock::now() < serve_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("served %zu requests, ready=%s\n", server.requests_served(),
              watchdog.ready() ? "true" : "false");
  server.Stop();
  watchdog.Stop();
  return 0;
}

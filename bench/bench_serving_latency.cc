// Serving-tier latency under concurrent snapshot publication.  Closed-loop
// reader threads drive micro-batched predictions through the lock-free
// snapshot path (one atomic epoch load per request on the fast path) while
// the continuous deployment trains and republishes in the background, and
// the client-side latency distribution is reported as exact percentiles
// (p50/p99/p999 over every recorded request, not histogram buckets).
//
// The headline number: p99 with training ON should stay within ~20% of p99
// with training OFF — publication must not contend with the read path.
//
// Flags:
//   --readers=4        reader thread count (ignored with --sweep=1)
//   --seconds=2        measurement window per configuration
//   --train=1          train-and-publish in the background while reading
//   --sweep=0          run the full 1/4/8-reader x train-on/off grid
//   --batch=16         rows per prediction request
//   --scale=0.2        stream scale for the background trainer
//   --seed=42
//   --json_out=path    result rows readers_<n>/train_<on|off>/<metric> and
//                      snapshot/<counter> (bench_common.h schema)
//   --port_file=path   start the obs server, write its port once the first
//                      measurement has served requests, and keep serving
//                      for --serve_seconds after the run (smoke tests curl
//                      /metrics and /readyz as soon as the file appears)
//   --serve_seconds=5

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/string_util.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {
namespace bench {
namespace {

struct LatencyStats {
  size_t requests = 0;
  double throughput_rps = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

LatencyStats Summarize(std::vector<double> latencies_us, double seconds) {
  LatencyStats stats;
  stats.requests = latencies_us.size();
  if (latencies_us.empty()) return stats;
  std::sort(latencies_us.begin(), latencies_us.end());
  double sum = 0.0;
  for (double v : latencies_us) sum += v;
  stats.mean_us = sum / static_cast<double>(latencies_us.size());
  stats.throughput_rps =
      seconds > 0.0 ? static_cast<double>(latencies_us.size()) / seconds : 0.0;
  stats.p50_us = Percentile(latencies_us, 0.50);
  stats.p99_us = Percentile(latencies_us, 0.99);
  stats.p999_us = Percentile(latencies_us, 0.999);
  return stats;
}

struct RunConfig {
  int readers = 4;
  bool train = true;
  double seconds = 2.0;
  size_t batch_rows = 16;
};

/// One measurement: `readers` closed-loop threads hammering PredictWith
/// against a shared publisher, optionally while the deployment trains.
LatencyStats MeasureOnce(ContinuousDeployment* deployment,
                         const std::vector<RawChunk>& stream,
                         const RawChunk& probe, const RunConfig& config) {
  serving::SnapshotPublisher* publisher =
      std::as_const(*deployment).pipeline_manager().publisher();
  serving::PredictionService::Options service_options;
  service_options.num_threads = 1;  // readers use the inline path
  service_options.deployment_id = deployment->deployment_id();
  serving::PredictionService service(publisher, service_options);

  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::vector<std::vector<double>> per_reader(
      static_cast<size_t>(config.readers));
  std::vector<std::thread> readers;
  for (int r = 0; r < config.readers; ++r) {
    readers.emplace_back([&, r] {
      serving::SnapshotReader reader(publisher);
      std::vector<double>& out = per_reader[static_cast<size_t>(r)];
      out.reserve(1u << 18);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_acquire)) {
        const auto start = std::chrono::steady_clock::now();
        Result<serving::PredictionService::Response> response =
            service.PredictWith(&reader, probe);
        const auto end = std::chrono::steady_clock::now();
        if (!response.ok()) {
          std::fprintf(stderr, "request failed: %s\n",
                       response.status().ToString().c_str());
          continue;
        }
        out.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
      }
    });
  }

  std::thread trainer;
  std::atomic<bool> train_stop{false};
  if (config.train) {
    trainer = std::thread([&] {
      // Re-run the stream until the measurement window closes: a steady
      // storm of statistics updates, online SGD, proactive iterations, and
      // snapshot publishes.  Chunk ids and event times must keep advancing
      // across passes, so each replay is shifted past everything seen.
      ChunkId id_stride = 0;
      int64_t time_stride = 0;
      for (const RawChunk& chunk : stream) {
        id_stride = std::max(id_stride, chunk.id + 1000);
        time_stride = std::max(time_stride, chunk.event_time_seconds + 1000);
      }
      // Persistent across sweep configurations: the deployment is shared,
      // so ids must advance monotonically over the whole process.
      static std::atomic<uint64_t> next_pass{1};
      while (!train_stop.load(std::memory_order_acquire)) {
        const uint64_t pass = next_pass.fetch_add(1);
        std::vector<RawChunk> replay = stream;
        for (RawChunk& chunk : replay) {
          chunk.id += static_cast<ChunkId>(pass) * id_stride;
          chunk.event_time_seconds +=
              static_cast<int64_t>(pass) * time_stride;
        }
        Result<DeploymentReport> report = deployment->Run(replay);
        if (!report.ok()) {
          std::fprintf(stderr, "background training failed: %s\n",
                       report.status().ToString().c_str());
          return;
        }
      }
    });
  }

  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(config.seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  train_stop.store(true, std::memory_order_release);
  if (trainer.joinable()) trainer.join();

  std::vector<double> all;
  for (std::vector<double>& v : per_reader) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return Summarize(std::move(all), config.seconds);
}

void PrintRow(const RunConfig& config, const LatencyStats& stats) {
  std::printf("  %7d  %8s  %9zu  %10.0f  %8.1f  %8.1f  %8.1f  %8.1f\n",
              config.readers, config.train ? "on" : "off", stats.requests,
              stats.throughput_rps, stats.mean_us, stats.p50_us, stats.p99_us,
              stats.p999_us);
  std::fflush(stdout);
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) {
  using namespace cdpipe;
  using namespace cdpipe::bench;

  Flags flags(argc, argv);
  RunConfig base;
  base.readers = static_cast<int>(flags.GetInt("readers", 4));
  base.train = flags.GetInt("train", 1) != 0;
  base.seconds = flags.GetDouble("seconds", 2.0);
  base.batch_rows = static_cast<size_t>(flags.GetInt("batch", 16));
  const bool sweep = flags.GetInt("sweep", 0) != 0;
  const double scale = flags.GetDouble("scale", 0.2);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_out = flags.GetString("json_out", "");
  const std::string port_file = flags.GetString("port_file", "");
  const double serve_seconds = flags.GetDouble("serve_seconds", 5.0);

  // Optional obs plane for smoke tests: watchdog + HTTP server over the
  // process-global metrics/journal/health state.
  std::unique_ptr<obs::Watchdog> watchdog;
  std::unique_ptr<obs::ObsServer> server;
  if (!port_file.empty()) {
    obs::Watchdog::Options watchdog_options;
    watchdog_options.stall_deadline_seconds = 5.0;
    watchdog = std::make_unique<obs::Watchdog>(watchdog_options);
    watchdog->Start();
    obs::ObsServer::Options server_options;
    server_options.watchdog = watchdog.get();
    server = std::make_unique<obs::ObsServer>(server_options);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "obs server failed to start: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("obs server listening on http://127.0.0.1:%u\n",
                server->port());
  }

  UrlScenario scenario(scale, seed);
  Deployment::Options options;
  options.seed = seed;
  ContinuousDeployment::ContinuousOptions continuous;
  continuous.proactive_every_chunks = scenario.proactive_every_chunks();
  continuous.sample_chunks = scenario.proactive_sample_chunks();
  ContinuousDeployment deployment(
      std::move(options), std::move(continuous), scenario.MakePipeline(),
      scenario.MakeModel(), MakeOptimizer(scenario.DefaultOptimizer()),
      scenario.MakeMetric());

  serving::SnapshotPublisher publisher;
  deployment.AttachServing(&publisher, nullptr, /*serve_evaluation=*/false);

  const std::vector<RawChunk> bootstrap = scenario.GenerateBootstrap();
  std::vector<RawChunk> stream = scenario.GenerateStream();
  Status init = deployment.InitialTrain(bootstrap, scenario.InitialTrainOptions());
  if (!init.ok()) {
    std::fprintf(stderr, "initial training failed: %s\n",
                 init.ToString().c_str());
    return 1;
  }
  deployment.PublishSnapshot();

  // The probe request: one micro-batch carved from the stream head.
  RawChunk probe = stream.front();
  if (probe.records.size() > base.batch_rows) {
    probe.records.resize(base.batch_rows);
  }
  probe.id = 900000;

  std::printf(
      "bench_serving_latency: %s scenario, %zu-row requests, %.1fs windows\n",
      scenario.name().c_str(), probe.num_rows(), base.seconds);
  std::printf(
      "  readers  training   requests  throughput   mean_us    p50_us"
      "    p99_us   p999_us\n");

  ResultSet results;
  results.bench = "serving_latency";
  std::vector<RunConfig> grid;
  if (sweep) {
    for (int readers : {1, 4, 8}) {
      for (bool train : {false, true}) {
        RunConfig config = base;
        config.readers = readers;
        config.train = train;
        grid.push_back(config);
      }
    }
  } else {
    grid.push_back(base);
  }

  for (const RunConfig& config : grid) {
    const LatencyStats stats = MeasureOnce(&deployment, stream, probe, config);
    PrintRow(config, stats);
    if (server != nullptr && &config == &grid.front()) {
      // Only now do the serving.* metrics exist and carry requests.
      std::FILE* f = std::fopen(port_file.c_str(), "w");
      if (f != nullptr) {
        std::fprintf(f, "%u\n", server->port());
        std::fclose(f);
      }
    }
    const std::string prefix = StrFormat("readers_%d/train_%s/", config.readers,
                                         config.train ? "on" : "off");
    results.AddReported(prefix + "requests", stats.requests, "count");
    results.AddReported(prefix + "throughput_rps",
                        stats.throughput_rps, "req/s");
    results.AddReported(prefix + "mean_us", stats.mean_us, "us");
    results.AddReported(prefix + "p50_us", stats.p50_us, "us");
    results.AddReported(prefix + "p99_us", stats.p99_us, "us");
    results.AddReported(prefix + "p999_us", stats.p999_us, "us");
  }

  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Global().Snapshot();
  const long long stale = metrics.CounterValueOr("serving.stale_reads", 0);
  const long long torn = metrics.CounterValueOr("serving.torn_reads", 0);
  const long long publishes = metrics.CounterValueOr("serving.publishes", 0);
  std::printf("  snapshot publishes: %lld, stale_reads: %lld, torn_reads: %lld\n",
              publishes, stale, torn);
  results.AddReported("snapshot/publishes", publishes, "count");
  results.AddExact("snapshot/stale_reads", stale, "count");
  results.AddExact("snapshot/torn_reads", torn, "count");
  if (!json_out.empty()) WriteResultsJson(json_out, results);

  if (server != nullptr) {
    std::printf("serving obs endpoints for %.1fs...\n", serve_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(serve_seconds));
    server->Stop();
    watchdog->Stop();
  }
  return stale == 0 && torn == 0 ? 0 : 2;
}

// Microbenchmark: full-pipeline transform throughput (rows/second) of the
// compiled block plan on the URL and Taxi pipelines, at two batch sizes.
// Complements Table 1 of the paper — all components are O(p), so
// throughput should be flat in batch size.  Per-component and per-layer
// times of a whole deployment come from deploybench (pipeline.preprocess_*
// and pipeline.rematerialize_*), which runs the same plan on every path.
//
// Hand-rolled timing loop (Stopwatch + calibrated repetition counts)
// instead of google-benchmark so the binary emits the result-row JSON of
// the committed BENCH_components.json baseline:
//
//   bench_component_throughput [--min_seconds=0.5] [--label=columnar]
//       [--json_out=path] [--obs=0]
//
// Rows are named <benchmark>/<batch_rows>/rows_per_second;
// `python3 bench/compare.py RUN.json --baseline BENCH_components.json`
// prints the x-factor per row.  `--obs=1` runs the identical suite with the
// whole observability plane live (event journal, watchdog, HTTP obs server
// on an ephemeral port) — diff the two labels to measure the plane's
// overhead on hot transform loops.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/stopwatch.h"
#include "src/obs/health.h"
#include "src/obs/obs_server.h"

namespace cdpipe {
namespace bench {
namespace {

/// Times `body` (one call = one pass over `batch_rows` rows): repeats until
/// `min_seconds` of accumulated runtime, after a warm-up pass, and adds the
/// rows/second.
void TimeRowsPerSecond(const std::string& name, size_t batch_rows,
                       double min_seconds, const std::function<void()>& body,
                       ResultSet* results) {
  body();  // warm-up (touches lazy caches, faults pages)
  size_t iterations = 0;
  Stopwatch watch;
  do {
    body();
    ++iterations;
  } while (watch.ElapsedSeconds() < min_seconds);
  const double rows_per_second =
      static_cast<double>(iterations * batch_rows) / watch.ElapsedSeconds();
  std::printf("%-28s rows=%-5zu  %12.0f rows/s  (%zu iters)\n",
              name.c_str(), batch_rows, rows_per_second, iterations);
  results->AddReported(
      name + "/" + std::to_string(batch_rows) + "/rows_per_second",
      rows_per_second, "rows/s");
}

void RunSuite(double min_seconds, ResultSet* results) {
  const std::vector<size_t> batch_sizes = {64, 512};

  for (size_t rows : batch_sizes) {
    UrlPipelineConfig config;
    config.raw_dim = 1u << 16;
    config.hash_bits = 12;
    auto pipeline = MakeUrlPipeline(config);
    UrlStreamGenerator::Config stream_config;
    stream_config.feature_dim = config.raw_dim;
    stream_config.initial_active_features = 3000;
    stream_config.records_per_chunk = rows;
    UrlStreamGenerator generator(stream_config);
    const RawChunk chunk = generator.NextChunk();
    (void)pipeline->UpdateAndTransform(chunk);
    TimeRowsPerSecond("FullUrlPipelineTransform", rows, min_seconds,
                      [&] { (void)pipeline->Transform(chunk); }, results);
  }

  for (size_t rows : batch_sizes) {
    auto pipeline = MakeTaxiPipeline();
    TaxiStreamGenerator::Config stream_config;
    stream_config.records_per_chunk = rows;
    TaxiStreamGenerator generator(stream_config);
    const RawChunk chunk = generator.NextChunk();
    (void)pipeline->UpdateAndTransform(chunk);
    TimeRowsPerSecond("FullTaxiPipelineTransform", rows, min_seconds,
                      [&] { (void)pipeline->Transform(chunk); }, results);
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double min_seconds = flags.GetDouble("min_seconds", 0.5);
  const std::string label = flags.GetString("label", "columnar");
  const std::string json_out = flags.GetString("json_out", "");
  const bool obs_on = flags.GetDouble("obs", 0) != 0;

  // Normalize glibc to its multi-threaded code paths in every run before
  // timing anything: the first thread a process ever creates permanently
  // clears `__libc_single_threaded`, turning every shared_ptr refcount in
  // the transform loops into a real atomic RMW (measured 5–25% on the
  // shortest loops).  Any real deployment runs an engine pool and pays
  // this anyway; without the normalization the --obs=1 run (which starts
  // watchdog + server threads) would be charged for it while the baseline
  // is not, and the A/B would measure glibc, not the obs plane.
  std::thread(([] {})).join();

  // With --obs=1 the full observability plane runs alongside the timed
  // loops: watchdog polling, HTTP server accepting (the journal is always
  // on).
  std::unique_ptr<obs::Watchdog> watchdog;
  std::unique_ptr<obs::ObsServer> server;
  if (obs_on) {
    watchdog = std::make_unique<obs::Watchdog>();
    watchdog->Start();
    server = std::make_unique<obs::ObsServer>();
    const Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "obs server failed to start: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("obs plane live on http://127.0.0.1:%u\n", server->port());
  }

  std::printf("component throughput (label=%s, min_seconds=%.2f, obs=%d)\n",
              label.c_str(), min_seconds, obs_on ? 1 : 0);
  ResultSet results;
  results.bench = "component_throughput";
  results.label = label;
  RunSuite(min_seconds, &results);
  if (!json_out.empty()) WriteResultsJson(json_out, results);
  if (server != nullptr) server->Stop();
  if (watchdog != nullptr) watchdog->Stop();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) { return cdpipe::bench::Main(argc, argv); }

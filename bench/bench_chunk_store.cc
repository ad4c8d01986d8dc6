// Microbenchmark: the two-tier chunk store's disk path — spill (encode +
// checksum + atomic write) throughput, disk-load latency for synchronous
// misses vs prefetch-staged hits, and the spill codec's compression ratio
// on both scenario record shapes (URL libsvm lines, Taxi CSV rows).
//
//   bench_chunk_store [--chunks=64] [--records_per_chunk=256]
//       [--min_seconds=0.3] [--label=two_tier] [--json_out=path]
//       [--spill_dir=path]    (default: a fresh temp dir, removed on exit)
//
// --deployment=1 [--scale=0.15] adds a whole-deployment memory-budget sweep.
// Compare against the committed BENCH_chunk_store.json baseline with
// bench/compare.py; rows are <dataset>/<metric> and
// deployment/<budget>/<metric>.  The interesting figures: MB/s through the
// spill encoder, the sync-load latency the trainer pays on a prefetch miss,
// the staged-load latency when ChunkStore::Prefetch got there first, and
// bytes-on-disk / bytes-in-memory.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/stopwatch.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/engine/execution_engine.h"
#include "src/storage/chunk_store.h"
#include "src/storage/spill_file.h"

namespace cdpipe {
namespace bench {
namespace {

namespace fs = std::filesystem;

std::vector<RawChunk> MakeStream(const std::string& dataset, size_t chunks,
                                 size_t records_per_chunk) {
  if (dataset == "taxi") {
    TaxiStreamGenerator::Config config;
    config.records_per_chunk = records_per_chunk;
    TaxiStreamGenerator generator(config);
    return generator.Generate(chunks);
  }
  UrlStreamGenerator::Config config;
  config.feature_dim = 1u << 14;
  config.initial_active_features = 1500;
  config.records_per_chunk = records_per_chunk;
  UrlStreamGenerator generator(config);
  return generator.Generate(chunks);
}

size_t StreamBytes(const std::vector<RawChunk>& stream) {
  size_t total = 0;
  for (const RawChunk& chunk : stream) total += chunk.ByteSize();
  return total;
}

/// Renumbers `chunk` so repeated passes over one stream keep ids strictly
/// increasing.
RawChunk WithId(const RawChunk& chunk, ChunkId id) {
  RawChunk copy = chunk;
  copy.id = id;
  return copy;
}

void RunDataset(const std::string& dataset, const std::string& dir,
                size_t num_chunks, size_t records_per_chunk,
                double min_seconds, ResultSet* results) {
  const std::vector<RawChunk> stream =
      MakeStream(dataset, num_chunks, records_per_chunk);
  const size_t raw_bytes = StreamBytes(stream);
  const size_t chunk_bytes = raw_bytes / num_chunks;

  // --- Spill throughput: budget of one chunk, every insert spills one. ---
  double spill_seconds = 0.0;
  size_t spilled_bytes = 0;
  double compression_ratio = 0.0;
  {
    size_t passes = 0;
    Stopwatch total;
    ChunkId next_id = 0;
    while (total.ElapsedSeconds() < min_seconds) {
      ChunkStore::Options options;
      options.memory_budget_bytes = chunk_bytes;
      options.spill_dir = dir;
      ChunkStore store(options);
      Stopwatch pass;
      for (const RawChunk& chunk : stream) {
        if (!store.PutRaw(WithId(chunk, next_id++)).ok()) std::abort();
      }
      spill_seconds += pass.ElapsedSeconds();
      const ChunkStore::Counters counters = store.counters();
      spilled_bytes += static_cast<size_t>(counters.spill_raw_bytes);
      compression_ratio = counters.SpillCompressionRatio();
      ++passes;
    }
    (void)passes;
  }
  const double spill_mb_s =
      static_cast<double>(spilled_bytes) / (1024.0 * 1024.0) / spill_seconds;
  std::printf("%-6s spill throughput       %10.1f MB/s  (ratio %.3f)\n",
              dataset.c_str(), spill_mb_s, compression_ratio);
  results->AddReported(dataset + "/spill_throughput", spill_mb_s, "MB/s");
  results->AddReported(dataset + "/spill_compression_ratio",
                       compression_ratio, "x");

  // --- Load latency: sync (prefetch miss) vs staged (prefetch hit). ---
  {
    ChunkStore::Options options;
    options.memory_budget_bytes = chunk_bytes;
    options.spill_dir = dir;
    ExecutionEngine engine(1);
    ChunkStore store(options);
    ChunkId next_id = 0;
    for (const RawChunk& chunk : stream) {
      if (!store.PutRaw(WithId(chunk, next_id++)).ok()) std::abort();
    }
    const std::vector<ChunkId> live = store.LiveIds();
    std::vector<ChunkId> spilled_ids;
    for (ChunkId id : live) {
      if (store.IsSpilled(id)) spilled_ids.push_back(id);
    }

    // Synchronous loads: every fetch pays encode-inverse + checksum + IO.
    int64_t sync_loads = 0;
    Stopwatch sync_watch;
    while (sync_watch.ElapsedSeconds() < min_seconds) {
      const ChunkId id =
          spilled_ids[static_cast<size_t>(sync_loads) % spilled_ids.size()];
      if (store.FetchRaw(id) == nullptr) std::abort();
      ++sync_loads;
      // Recycle the pinned staging area without growing the log.
      if (sync_loads % 64 == 0) {
        if (!store.PutRaw(WithId(stream.back(), next_id++)).ok()) {
          std::abort();
        }
      }
    }
    const double sync_us =
        sync_watch.ElapsedSeconds() * 1e6 / static_cast<double>(sync_loads);

    // Staged loads: the async lane reads ahead, the consumer only collects
    // a finished future.  Loop control is wall-clock (the prefetch IO
    // dominates each round); only the consume side is timed.
    int64_t staged_loads = 0;
    double staged_seconds = 0.0;
    Stopwatch staged_watch;
    while (staged_watch.ElapsedSeconds() < min_seconds) {
      std::vector<ChunkId> window;
      for (int i = 0; i < 8; ++i) {
        window.push_back(
            spilled_ids[static_cast<size_t>(staged_loads + i) %
                        spilled_ids.size()]);
      }
      store.Prefetch(window, &engine);
      engine.DrainAsync();
      Stopwatch consume;
      for (const ChunkId id : window) {
        if (store.FetchRaw(id) == nullptr) std::abort();
      }
      staged_seconds += consume.ElapsedSeconds();
      staged_loads += static_cast<int64_t>(window.size());
      if (!store.PutRaw(WithId(stream.back(), next_id++)).ok()) std::abort();
    }
    const double staged_us =
        staged_seconds * 1e6 / static_cast<double>(staged_loads);

    std::printf(
        "%-6s disk-load latency      %10.1f us sync  %8.1f us staged\n",
        dataset.c_str(), sync_us, staged_us);
    results->AddReported(dataset + "/sync_load_latency", sync_us, "us");
    results->AddReported(dataset + "/staged_load_latency", staged_us, "us");
    results->AddReported(dataset + "/disk_bytes_per_chunk",
                         store.DiskBytes() / store.num_spilled(), "bytes");
  }

  // --- Pure codec round trip, no filesystem: encode+decode MB/s. ---
  {
    const RawChunk& chunk = stream.front();
    const std::string path = dir + "/codec_probe.spill";
    size_t processed = 0;
    Stopwatch watch;
    while (watch.ElapsedSeconds() < min_seconds) {
      if (!WriteRawChunkSpill(path, chunk).ok()) std::abort();
      if (!ReadRawChunkSpill(path, chunk.id).ok()) std::abort();
      processed += chunk.ByteSize();
    }
    const double mb_s = static_cast<double>(processed) / (1024.0 * 1024.0) /
                        watch.ElapsedSeconds();
    std::printf("%-6s write+read round trip  %10.1f MB/s\n", dataset.c_str(),
                mb_s);
    results->AddReported(dataset + "/round_trip_throughput", mb_s, "MB/s");
  }
}

/// Runs the URL continuous deployment with the raw log forced (mostly)
/// onto disk at decreasing memory budgets.  The interesting claims: the
/// numbers (final error, μ totals) do not move — only where bytes live
/// does — and the wall-clock overhead of the disk tier stays small
/// because prefetching stages the sampler's picks.
void RunDeploymentSweep(const std::string& dir, double scale,
                        ResultSet* results) {
  const UrlScenario scenario(scale);
  size_t raw_bytes = 0;
  for (const RawChunk& chunk : scenario.GenerateBootstrap()) {
    raw_bytes += chunk.ByteSize();
  }
  for (const RawChunk& chunk : scenario.GenerateStream()) {
    raw_bytes += chunk.ByteSize();
  }

  struct Point {
    const char* label;
    const char* key;
    size_t divisor;  ///< 0 = RAM-only
  };
  const Point points[] = {{"ram", "ram", 0},
                          {"1/2", "half", 2},
                          {"1/4", "quarter", 4},
                          {"1/8", "eighth", 8}};
  for (const Point& point : points) {
    RunOverrides overrides;
    // Bounded materialization keeps the feature cache from absorbing every
    // sample, so proactive training actually walks the raw tiers (and
    // prefetching earns its keep).  Same bound in every row — only the
    // budget moves.
    overrides.max_materialized_chunks = 16;
    if (point.divisor > 0) {
      overrides.memory_budget_bytes = raw_bytes / point.divisor;
      overrides.spill_dir = dir;
    }
    Stopwatch watch;
    const DeploymentReport report =
        RunDeployment(scenario, StrategyKind::kContinuous, overrides);
    const double seconds = watch.ElapsedSeconds();
    const ChunkStore::Counters& storage = report.storage;
    std::printf(
        "url    budget=%-4s  mu=%.3f (mem %.3f + disk %.3f)  spilled=%-4lld "
        "prefetch=%.2f  %.2fs  err=%.4f\n",
        point.label, storage.EmpiricalMu(), storage.MemoryMu(),
        storage.DiskMu(), static_cast<long long>(storage.chunks_spilled),
        storage.PrefetchHitRate(), seconds, report.final_error);
    const std::string prefix = std::string("deployment/") + point.key;
    results->AddReported(prefix + "/total_mu", storage.EmpiricalMu(), "ratio");
    results->AddReported(prefix + "/memory_mu", storage.MemoryMu(), "ratio");
    results->AddReported(prefix + "/disk_mu", storage.DiskMu(), "ratio");
    results->AddReported(prefix + "/chunks_spilled",
                         storage.chunks_spilled, "count");
    results->AddReported(prefix + "/prefetch_hit_rate",
                         storage.PrefetchHitRate(), "frac");
    results->AddReported(prefix + "/compression_ratio",
                         storage.SpillCompressionRatio(), "x");
    results->AddReported(prefix + "/seconds", seconds, "s");
    results->AddReported(prefix + "/final_error", report.final_error, "error");
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t num_chunks =
      static_cast<size_t>(flags.GetInt("chunks", 64));
  const size_t records_per_chunk =
      static_cast<size_t>(flags.GetInt("records_per_chunk", 256));
  const double min_seconds = flags.GetDouble("min_seconds", 0.3);
  const std::string label = flags.GetString("label", "two_tier");
  const std::string json_out = flags.GetString("json_out", "");
  std::string dir = flags.GetString("spill_dir", "");

  const bool own_dir = dir.empty();
  if (own_dir) {
    dir = (fs::temp_directory_path() / "cdpipe_bench_chunk_store").string();
  }
  fs::create_directories(dir);

  std::printf(
      "chunk store bench (label=%s, chunks=%zu, records_per_chunk=%zu)\n",
      label.c_str(), num_chunks, records_per_chunk);
  ResultSet results;
  results.bench = "chunk_store";
  results.label = label;
  results.config = {{"chunks", num_chunks},
                    {"records_per_chunk", records_per_chunk}};
  RunDataset("url", dir, num_chunks, records_per_chunk, min_seconds,
             &results);
  RunDataset("taxi", dir, num_chunks, records_per_chunk, min_seconds,
             &results);
  // Whole-deployment budget sweep (opt-in: it runs full training loops).
  if (flags.GetInt("deployment", 0) != 0) {
    RunDeploymentSweep(dir, flags.GetDouble("scale", 0.15), &results);
  }
  if (!json_out.empty()) WriteResultsJson(json_out, results);

  if (own_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) { return cdpipe::bench::Main(argc, argv); }

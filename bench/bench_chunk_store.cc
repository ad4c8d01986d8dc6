// Microbenchmark: the two-tier chunk store's disk path — spill (encode +
// checksum + atomic write) throughput, disk-load latency for synchronous
// misses vs prefetch-staged hits, and the spill codec's compression ratio
// on both scenario record shapes (URL libsvm lines, Taxi CSV rows).
//
//   bench_chunk_store [--chunks=64] [--records_per_chunk=256]
//       [--min_seconds=0.3] [--label=two_tier] [--json_out=path]
//       [--spill_dir=path]    (default: a fresh temp dir, removed on exit)
//
// Compare against the committed BENCH_chunk_store.json baseline.  The
// interesting figures: MB/s through the spill encoder, the sync-load
// latency the trainer pays on a prefetch miss, the staged-load latency when
// the prefetcher got there first, and bytes-on-disk / bytes-in-memory.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"
#include "src/engine/execution_engine.h"
#include "src/storage/chunk_store.h"
#include "src/storage/prefetcher.h"
#include "src/storage/spill_file.h"

namespace cdpipe {
namespace bench {
namespace {

namespace fs = std::filesystem;

struct StoreBenchResult {
  std::string name;
  std::string dataset;
  double value = 0.0;
  std::string unit;
};

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
                double min_seconds, std::vector<StoreBenchResult>* results) {
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
  results->push_back({"spill_throughput", dataset, spill_mb_s, "MB/s"});
  results->push_back(
      {"spill_compression_ratio", dataset, compression_ratio, "x"});

  // --- Load latency: sync (prefetch miss) vs staged (prefetch hit). ---
  {
    ChunkStore::Options options;
    options.memory_budget_bytes = chunk_bytes;
    options.spill_dir = dir;
    ExecutionEngine engine(1);
    ChunkStore store(options);
    Prefetcher prefetcher(&store, &engine);
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

    // Staged loads: the prefetcher reads ahead, the consumer only moves a
    // pointer out of the slot.  Loop control is wall-clock (the prefetch IO
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
      prefetcher.Schedule(window);
      prefetcher.Drain();
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

    const ChunkStore::Counters counters = store.counters();
    std::printf(
        "%-6s disk-load latency      %10.1f us sync  %8.1f us staged  "
        "(prefetch hit rate %.2f)\n",
        dataset.c_str(), sync_us, staged_us, counters.PrefetchHitRate());
    results->push_back({"sync_load_latency", dataset, sync_us, "us"});
    results->push_back({"staged_load_latency", dataset, staged_us, "us"});
    results->push_back(
        {"prefetch_hit_rate", dataset, counters.PrefetchHitRate(), "frac"});
    results->push_back(
        {"disk_bytes_per_chunk", dataset,
         static_cast<double>(store.DiskBytes()) /
             static_cast<double>(store.num_spilled()),
         "bytes"});
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
    results->push_back({"round_trip_throughput", dataset, mb_s, "MB/s"});
  }
}

struct DeploymentRow {
  std::string budget;       ///< "ram" or a fraction of stream raw bytes
  ChunkStore::Counters storage;
  double seconds = 0.0;
  double final_error = 0.0;
};

/// Runs the URL continuous deployment with the raw log forced (mostly)
/// onto disk at decreasing memory budgets.  The interesting claims: the
/// numbers (final error, μ totals) do not move — only where bytes live
/// does — and the wall-clock overhead of the disk tier stays small
/// because the prefetcher stages the sampler's picks.
void RunDeploymentSweep(const std::string& dir, double scale,
                        std::vector<DeploymentRow>* rows) {
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
    size_t divisor;  ///< 0 = RAM-only
  };
  const Point points[] = {{"ram", 0}, {"1/2", 2}, {"1/4", 4}, {"1/8", 8}};
  for (const Point& point : points) {
    RunOverrides overrides;
    // Bounded materialization keeps the feature cache from absorbing every
    // sample, so proactive training actually walks the raw tiers (and the
    // prefetcher earns its keep).  Same bound in every row — only the
    // budget moves.
    overrides.max_materialized_chunks = 16;
    if (point.divisor > 0) {
      overrides.memory_budget_bytes = raw_bytes / point.divisor;
      overrides.spill_dir = dir;
    }
    Stopwatch watch;
    const DeploymentReport report =
        RunDeployment(scenario, StrategyKind::kContinuous, overrides);
    DeploymentRow row;
    row.budget = point.label;
    row.storage = report.storage;
    row.seconds = watch.ElapsedSeconds();
    row.final_error = report.final_error;
    std::printf(
        "url    budget=%-4s  mu=%.3f (mem %.3f + disk %.3f)  spilled=%-4lld "
        "prefetch=%.2f  %.2fs  err=%.4f\n",
        row.budget.c_str(), row.storage.EmpiricalMu(),
        row.storage.MemoryMu(), row.storage.DiskMu(),
        static_cast<long long>(row.storage.chunks_spilled),
        row.storage.PrefetchHitRate(), row.seconds, row.final_error);
    rows->push_back(row);
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
  std::vector<StoreBenchResult> results;
  RunDataset("url", dir, num_chunks, records_per_chunk, min_seconds,
             &results);
  RunDataset("taxi", dir, num_chunks, records_per_chunk, min_seconds,
             &results);

  // Whole-deployment budget sweep (opt-in: it runs full training loops).
  std::vector<DeploymentRow> deployment_rows;
  if (flags.GetInt("deployment", 0) != 0) {
    RunDeploymentSweep(dir, flags.GetDouble("scale", 0.15),
                       &deployment_rows);
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", json_out.c_str());
      return 1;
    }
    out << "{\n  \"bench\": \"chunk_store\",\n";
    out << StrFormat("  \"label\": \"%s\",\n", label.c_str());
    out << StrFormat("  \"chunks\": %zu,\n", num_chunks);
    out << StrFormat("  \"records_per_chunk\": %zu,\n", records_per_chunk);
    out << "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      out << StrFormat(
          "    {\"name\": \"%s\", \"dataset\": \"%s\", \"value\": %.3f, "
          "\"unit\": \"%s\"}%s\n",
          results[i].name.c_str(), results[i].dataset.c_str(),
          results[i].value, results[i].unit.c_str(),
          i + 1 < results.size() ? "," : "");
    }
    out << "  ],\n  \"deployment\": [\n";
    for (size_t i = 0; i < deployment_rows.size(); ++i) {
      const DeploymentRow& row = deployment_rows[i];
      out << StrFormat(
          "    {\"budget\": \"%s\", \"total_mu\": %.4f, \"memory_mu\": %.4f, "
          "\"disk_mu\": %.4f, \"chunks_spilled\": %lld, "
          "\"prefetch_hit_rate\": %.4f, \"compression_ratio\": %.4f, "
          "\"seconds\": %.3f, \"final_error\": %.6f}%s\n",
          row.budget.c_str(), row.storage.EmpiricalMu(),
          row.storage.MemoryMu(), row.storage.DiskMu(),
          static_cast<long long>(row.storage.chunks_spilled),
          row.storage.PrefetchHitRate(), row.storage.SpillCompressionRatio(),
          row.seconds, row.final_error,
          i + 1 < deployment_rows.size() ? "," : "");
    }
    out << "  ]\n}\n";
    if (!out.good()) {
      std::fprintf(stderr, "failed writing '%s'\n", json_out.c_str());
      return 1;
    }
    std::printf("wrote JSON report: %s\n", json_out.c_str());
  }

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

// SGD training-path throughput: rows/sec and ns/row of mini-batch SGD over
// a synthetic sparse sample (nominal dims grow across chunks, like real
// proactive samples whose one-hot dictionaries grew between
// materializations) along the two training paths:
//
//   view_serial   — zero-copy BatchView mini-batches, serial gradient
//   view_sharded  — BatchView mini-batches, gradient sharded across an
//                   ExecutionEngine thread pool
//
// The two paths must produce bit-identical model parameters at any
// configuration; the binary exits nonzero if they diverge.  The kernel's
// correctness reference is the row-at-a-time gradient in
// tests/spec/gradient_spec.h.
//
//   bench_sgd_throughput [--rows=120000] [--chunk_rows=500] [--dim=4096]
//       [--nnz=16] [--batch_size=512] [--threads=4] [--epochs=2]
//       [--seed=42] [--json_out=path]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/engine/execution_engine.h"
#include "src/ml/trainer.h"

namespace cdpipe {
namespace bench {
namespace {

struct Config {
  size_t rows = 120000;
  size_t chunk_rows = 500;
  uint32_t dim = 4096;
  size_t nnz = 16;
  size_t batch_size = 512;
  size_t threads = 4;
  int epochs = 2;
  uint64_t seed = 42;
};

// Synthetic sparse chunks whose nominal dim grows monotonically from dim/2
// to dim across the stream, like a one-hot dictionary discovering new
// categories over a deployment: in a sampled training batch every chunk
// but the newest is narrower than the batch dim.
std::vector<FeatureData> MakeChunks(const Config& config) {
  Rng rng(config.seed);
  std::vector<FeatureData> chunks;
  const size_t num_chunks =
      (config.rows + config.chunk_rows - 1) / config.chunk_rows;
  size_t remaining = config.rows;
  for (size_t c = 0; c < num_chunks; ++c) {
    FeatureData chunk;
    const uint32_t base = config.dim / 2;
    chunk.dim = num_chunks > 1
                    ? base + static_cast<uint32_t>((config.dim - base) * c /
                                                   (num_chunks - 1))
                    : config.dim;
    const size_t rows = std::min(config.chunk_rows, remaining);
    remaining -= rows;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::pair<uint32_t, double>> entries;
      for (size_t k = 0; k < config.nnz; ++k) {
        entries.push_back({static_cast<uint32_t>(rng.NextUint64() % chunk.dim),
                           rng.NextGaussian()});
      }
      chunk.features.push_back(
          SparseVector::FromUnsorted(chunk.dim, std::move(entries)));
      chunk.labels.push_back(rng.NextUint64() % 2 == 0 ? 1.0 : -1.0);
    }
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

struct PathResult {
  std::string label;
  double seconds = 0.0;
  int64_t rows_visited = 0;
  double rows_per_sec = 0.0;
  double ns_per_row = 0.0;
  std::vector<double> weights_fingerprint;  // first weights for equivalence
  double bias = 0.0;
};

PathResult FinishResult(const std::string& label, double seconds,
                        int64_t rows_visited, const LinearModel& model) {
  PathResult result;
  result.label = label;
  result.seconds = seconds;
  result.rows_visited = rows_visited;
  result.rows_per_sec = seconds > 0.0 ? rows_visited / seconds : 0.0;
  result.ns_per_row =
      rows_visited > 0 ? seconds * 1e9 / rows_visited : 0.0;
  for (uint32_t i = 0; i < std::min<uint32_t>(model.dim(), 64); ++i) {
    result.weights_fingerprint.push_back(model.weights()[i]);
  }
  result.bias = model.bias();
  std::printf("  %-14s %9.3fs  %12.0f rows/s  %8.1f ns/row\n", label.c_str(),
              result.seconds, result.rows_per_sec, result.ns_per_row);
  return result;
}

LinearModel MakeModel(const Config& config) {
  return LinearModel(LinearModel::Options{.loss = LossKind::kHinge,
                                          .l2_reg = 1e-4,
                                          .fit_bias = true,
                                          .initial_dim = config.dim});
}

std::unique_ptr<Optimizer> MakeBenchOptimizer() {
  return MakeOptimizer(
      OptimizerOptions{.kind = OptimizerKind::kAdam, .learning_rate = 0.01});
}

PathResult RunPath(const std::string& label, const Config& config,
                   const std::vector<FeatureData>& chunks,
                   ExecutionEngine* engine) {
  std::vector<const FeatureData*> parts;
  parts.reserve(chunks.size());
  for (const FeatureData& chunk : chunks) parts.push_back(&chunk);

  LinearModel model = MakeModel(config);
  auto optimizer = MakeBenchOptimizer();
  BatchTrainer trainer(BatchTrainer::Options{
      .max_epochs = config.epochs,
      .batch_size = config.batch_size,
      .tolerance = 0.0});  // run every epoch: fixed work per path

  Rng rng(config.seed + 1);  // same shuffle sequence for every path
  Stopwatch watch;
  auto stats = trainer.Train(parts, &model, optimizer.get(), &rng, engine);
  const double seconds = watch.ElapsedSeconds();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", label.c_str(),
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  return FinishResult(label, seconds, stats->examples_visited, model);
}

void CheckEquivalence(const PathResult& a, const PathResult& b) {
  if (a.bias != b.bias || a.weights_fingerprint != b.weights_fingerprint) {
    std::fprintf(stderr,
                 "FATAL: %s and %s diverged — paths must be bit-identical\n",
                 a.label.c_str(), b.label.c_str());
    std::exit(1);
  }
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  Config config;
  config.rows = static_cast<size_t>(flags.GetInt("rows", 120000));
  config.chunk_rows = static_cast<size_t>(flags.GetInt("chunk_rows", 500));
  config.dim = static_cast<uint32_t>(flags.GetInt("dim", 4096));
  config.nnz = static_cast<size_t>(flags.GetInt("nnz", 16));
  config.batch_size = static_cast<size_t>(flags.GetInt("batch_size", 512));
  config.threads = static_cast<size_t>(flags.GetInt("threads", 4));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 2));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::printf(
      "SGD throughput: %zu rows, dim %u, nnz %zu, batch %zu, %d epoch(s), "
      "%zu thread(s)\n",
      config.rows, config.dim, config.nnz, config.batch_size, config.epochs,
      config.threads);
  const std::vector<FeatureData> chunks = MakeChunks(config);

  ExecutionEngine sharded_engine(config.threads);
  PathResult view_serial = RunPath("view_serial", config, chunks, nullptr);
  PathResult view_sharded =
      RunPath("view_sharded", config, chunks, &sharded_engine);

  // Both paths shuffle with the same seed and feed the same deterministic
  // gradient kernel: diverging parameters mean a bug.
  CheckEquivalence(view_serial, view_sharded);
  std::printf("  equivalence: identical parameters on both paths\n");

  const std::string json_out = flags.GetString("json_out", "");
  if (!json_out.empty()) {
    ResultSet results;
    results.bench = "sgd_throughput";
    results.config = {{"rows", config.rows},
                      {"chunk_rows", config.chunk_rows},
                      {"dim", config.dim},
                      {"nnz", config.nnz},
                      {"batch_size", config.batch_size},
                      {"threads", config.threads},
                      {"epochs", config.epochs},
                      {"seed", config.seed}};
    for (const PathResult* r : {&view_serial, &view_sharded}) {
      results.AddReported(r->label + "/seconds", r->seconds, "s");
      results.AddExact(r->label + "/rows_visited", r->rows_visited, "rows");
      results.AddReported(r->label + "/rows_per_sec",
                          r->rows_per_sec, "rows/s");
      results.AddReported(r->label + "/ns_per_row", r->ns_per_row, "ns");
    }
    WriteResultsJson(json_out, results);
  }
  return 0;
}

}  // namespace bench
}  // namespace cdpipe

int main(int argc, char** argv) { return cdpipe::bench::Main(argc, argv); }

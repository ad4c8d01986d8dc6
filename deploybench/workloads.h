#ifndef CDPIPE_DEPLOYBENCH_WORKLOADS_H_
#define CDPIPE_DEPLOYBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace cdpipe {
namespace deploybench {

/// One named benchmark workload: a scenario, a strategy and the storage /
/// serving knobs that decide which layers it loads (see README.md).
struct Workload {
  std::string name;
  std::string scenario;  ///< "url" | "taxi"
  bench::StrategyKind strategy;
  double scale;          ///< stream length multiplier (1.0 = 480 chunks)
  size_t engine_threads;
  /// Feature-cache bound m (SIZE_MAX = unbounded).
  size_t max_materialized_chunks;
  /// Raw memory budget as a share of the stream's raw bytes, bootstrap
  /// included (0 = RAM only, no spill).
  double memory_budget_share;
  /// Serve-then-train with one service worker plus one open-loop client.
  bool serving;
};

const std::vector<Workload>& AllWorkloads();
/// Null when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

/// Open-loop client request rate and size on serving workloads.
inline constexpr double kClientRequestsPerSecond = 1000.0;
inline constexpr size_t kClientRowsPerRequest = 16;

/// Everything a repetition consumes, generated from the seed alone.
struct Inputs {
  std::unique_ptr<bench::Scenario> scenario;
  std::vector<RawChunk> bootstrap;
  std::vector<RawChunk> stream;
  /// Prediction requests for the serving client (serving workloads only).
  std::vector<RawChunk> queries;
  int64_t stream_rows = 0;
  size_t raw_bytes = 0;  ///< bootstrap + stream
};

Inputs GenerateInputs(const Workload& workload, uint64_t seed);

/// Deployment and strategy settings shared by `Deployment::Run` and the
/// traced driver, so both execute the same configuration.
struct DeploymentConfig {
  bench::StrategyKind strategy = bench::StrategyKind::kContinuous;
  Deployment::Options options;
  OptimizerOptions optimizer;
  BatchTrainer::Options initial_train;
  // Continuous strategy.
  size_t proactive_every_chunks = 0;
  size_t sample_chunks = 0;
  // Periodical strategy.
  size_t retrain_every_chunks = 0;
  bool warm_start = true;
  BatchTrainer::Options retrain;
};

/// Builds the configuration the way bench::RunDeployment does from the
/// workload's RunOverrides.  `spill_dir` is used only by workloads with a
/// memory budget.
DeploymentConfig MakeConfig(const Workload& workload, const Inputs& inputs,
                            const std::string& spill_dir);

std::unique_ptr<Deployment> MakeDeployment(const DeploymentConfig& config,
                                           const bench::Scenario& scenario);

}  // namespace deploybench
}  // namespace cdpipe

#endif  // CDPIPE_DEPLOYBENCH_WORKLOADS_H_

#ifndef CDPIPE_BENCH_BENCH_COMMON_H_
#define CDPIPE_BENCH_BENCH_COMMON_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/continuous_deployment.h"
#include "src/core/deployment.h"
#include "src/core/online_deployment.h"
#include "src/core/periodical_deployment.h"
#include "src/data/taxi_stream.h"
#include "src/data/url_stream.h"

namespace cdpipe {
namespace bench {

/// Tiny --key=value flag parser shared by the experiment binaries.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

/// A reproduction scenario: one of the paper's two dataset/pipeline pairs,
/// scaled down so every figure regenerates in minutes.  `scale` multiplies
/// the stream length (1.0 = default bench scale; the paper's full runs use
/// 12,000+ chunks).
class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual std::string name() const = 0;
  virtual std::string metric_label() const = 0;

  virtual std::unique_ptr<Pipeline> MakePipeline() const = 0;
  virtual std::unique_ptr<LinearModel> MakeModel() const = 0;
  virtual std::unique_ptr<Metric> MakeMetric() const = 0;

  /// Default optimizer config (the best from the Table-3 grid).
  virtual OptimizerOptions DefaultOptimizer() const = 0;

  /// Bootstrap (initial training) and deployment streams.
  virtual std::vector<RawChunk> GenerateBootstrap() const = 0;
  virtual std::vector<RawChunk> GenerateStream() const = 0;

  size_t bootstrap_chunks() const { return bootstrap_chunks_; }
  size_t stream_chunks() const { return stream_chunks_; }
  size_t proactive_every_chunks() const { return proactive_every_chunks_; }
  size_t proactive_sample_chunks() const { return proactive_sample_chunks_; }
  size_t retrain_every_chunks() const { return retrain_every_chunks_; }
  uint64_t seed() const { return seed_; }

  BatchTrainer::Options InitialTrainOptions() const;
  BatchTrainer::Options RetrainOptions() const;

 protected:
  size_t bootstrap_chunks_ = 40;
  size_t stream_chunks_ = 480;
  size_t proactive_every_chunks_ = 5;   ///< paper: every 5 min / 5 h
  size_t proactive_sample_chunks_ = 20;
  size_t retrain_every_chunks_ = 80;    ///< paper: every 10 days / monthly
  uint64_t seed_ = 42;
};

/// The URL scenario: drifting sparse binary classification + SVM.
class UrlScenario final : public Scenario {
 public:
  explicit UrlScenario(double scale = 1.0, uint64_t seed = 42);

  std::string name() const override { return "URL"; }
  std::string metric_label() const override { return "misclassification"; }
  std::unique_ptr<Pipeline> MakePipeline() const override;
  std::unique_ptr<LinearModel> MakeModel() const override;
  std::unique_ptr<Metric> MakeMetric() const override;
  OptimizerOptions DefaultOptimizer() const override;
  std::vector<RawChunk> GenerateBootstrap() const override;
  std::vector<RawChunk> GenerateStream() const override;

  UrlPipelineConfig pipeline_config() const { return pipeline_config_; }
  UrlStreamGenerator::Config stream_config() const { return stream_config_; }

 private:
  UrlPipelineConfig pipeline_config_;
  UrlStreamGenerator::Config stream_config_;
};

/// The Taxi scenario: stationary dense regression + linear regression.
class TaxiScenario final : public Scenario {
 public:
  explicit TaxiScenario(double scale = 1.0, uint64_t seed = 42);

  std::string name() const override { return "Taxi"; }
  std::string metric_label() const override { return "RMSLE"; }
  std::unique_ptr<Pipeline> MakePipeline() const override;
  std::unique_ptr<LinearModel> MakeModel() const override;
  std::unique_ptr<Metric> MakeMetric() const override;
  OptimizerOptions DefaultOptimizer() const override;
  std::vector<RawChunk> GenerateBootstrap() const override;
  std::vector<RawChunk> GenerateStream() const override;

  TaxiStreamGenerator::Config stream_config() const { return stream_config_; }

 private:
  TaxiStreamGenerator::Config stream_config_;
};

std::unique_ptr<Scenario> MakeScenario(const std::string& name, double scale,
                                       uint64_t seed);

enum class StrategyKind { kOnline, kPeriodical, kContinuous };
const char* StrategyName(StrategyKind kind);

/// Extra knobs a specific experiment overrides on top of the scenario
/// defaults.  Two runs with equal overrides on one scenario are the same
/// run.
struct RunOverrides {
  SamplerKind sampler = SamplerKind::kTime;
  size_t sampler_window = 0;  ///< 0 = half the stream, set at run time
  size_t max_materialized_chunks = SIZE_MAX;
  /// Two-tier raw storage (both must be set to spill; see ChunkStore).
  size_t memory_budget_bytes = 0;
  std::string spill_dir;
  bool online_statistics = true;
  bool warm_start = true;
  /// When set, replace the scenario's optimizer kind, the model's L2
  /// regularization and the periodical retrain's convergence tolerance.
  std::optional<OptimizerKind> optimizer_kind;
  std::optional<double> l2_reg;
  std::optional<double> retrain_tolerance;

  bool operator==(const RunOverrides&) const = default;
};

/// Builds the strategy, runs initial training + the deployment stream, and
/// returns the report.  Aborts on error (benchmark binaries).
DeploymentReport RunDeployment(const Scenario& scenario, StrategyKind kind,
                               const RunOverrides& overrides = {});

/// Initial training on `bootstrap`, then `deployment->Run(stream)`.
/// Aborts on error (benchmark binaries).
DeploymentReport TrainAndRun(Deployment* deployment,
                             const std::vector<RawChunk>& bootstrap,
                             const BatchTrainer::Options& initial_train,
                             const std::vector<RawChunk>& stream);

/// One value in the result-row schema every bench binary writes with
/// --json_out and bench/compare.py reads.  `name` is a '/'-separated key,
/// unique within a file (e.g. "fig4/url/continuous/total_work").  An exact
/// row is deterministic at fixed flags and seed (work units, errors, μ,
/// counts) and must equal its baseline; the others (seconds, rates,
/// latencies) are reported against it.
struct ResultRow {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;
};

/// One bench run's rows plus the settings they were measured at.
struct ResultSet {
  std::string bench;
  std::string label;
  std::vector<std::pair<std::string, double>> config;
  std::vector<ResultRow> rows;

  void AddExact(std::string name, double value, std::string unit) {
    rows.push_back({std::move(name), value, std::move(unit), true});
  }
  void AddReported(std::string name, double value, std::string unit) {
    rows.push_back({std::move(name), value, std::move(unit), false});
  }
};

/// Writes `results` to `path` as
///   {"bench":..., "label":..., "config":{...}, "rows":[{"name":...,
///    "value":..., "unit":..., "exact":...}, ...]}
/// with 17 significant digits, so exact values round-trip.  Aborts on a
/// non-finite value or an I/O failure (benchmark binaries).
void WriteResultsJson(const std::string& path, const ResultSet& results);

}  // namespace bench
}  // namespace cdpipe

#endif  // CDPIPE_BENCH_BENCH_COMMON_H_

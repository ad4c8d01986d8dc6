#ifndef CDPIPE_CORE_DEPLOYMENT_H_
#define CDPIPE_CORE_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/admission.h"
#include "src/core/cost_model.h"
#include "src/core/data_manager.h"
#include "src/core/pipeline_manager.h"
#include "src/core/proactive_trainer.h"
#include "src/core/report.h"
#include "src/engine/execution_engine.h"
#include "src/ml/metrics.h"
#include "src/ml/prequential.h"
#include "src/ml/trainer.h"
#include "src/sampling/sampler.h"
#include "src/serving/prediction_service.h"
#include "src/serving/snapshot_publisher.h"

namespace cdpipe {

/// Base driver for the three deployment approaches compared in §5.2.
///
/// The shared replay protocol per incoming chunk (the paper's "deployment
/// process", §5.1):
///   1. the data manager discretizes/stores the raw chunk,
///   2. the pipeline manager runs the online path: statistics update +
///      transform, prequential test-then-train evaluation, and (for every
///      strategy) an online SGD update,
///   3. the transformed feature chunk is stored (materialized),
///   4. the strategy hook runs (nothing / proactive training / periodic
///      full retraining),
///   5. quality and cost are snapshotted into the report curve.
///
/// A strategy is a trigger in `AfterChunk` plus a selection and a step, and
/// every step takes one path: the selected chunk ids go through
/// `DataManager::Resolve`, then `ProactiveTrainer::Rebuild` rebuilds the
/// evicted ones, then the step runs under `ProactiveTrainer::RunStep`.
/// Continuous selects a sampler draw and steps one SGD iteration; a drift
/// burst selects `WindowSampler` draws; a periodical retrain selects the
/// whole live history and steps one BatchTrainer pass.
class Deployment {
 public:
  struct Options {
    /// Storage bounds (N and m of §3.2.2).
    ChunkStore::Options store;
    /// Sampling strategy for proactive training.
    SamplerKind sampler = SamplerKind::kUniform;
    size_t sampler_window = 0;  ///< window sampler only
    /// Online statistics computation + feature reuse (§3.1, §5.4 toggle).
    bool online_statistics = true;
    /// Online SGD on each arriving chunk (all three strategies do this).
    bool online_learning = true;
    /// Sliding-window size (observations) for the windowed quality curve.
    size_t eval_window = 20000;
    uint64_t seed = 42;
    /// Worker threads for re-materialization fan-out (1 = deterministic).
    size_t engine_threads = 1;
    /// Retry policy for transient failures (flaky engine tasks, storage
    /// hiccups, failed re-materializations).  Applied by the execution
    /// engine to parallel tasks and by the deployment loop to ingest.  A
    /// transient failure that survives its retries degrades instead of
    /// aborting the run — an unstorable feature chunk stays unmaterialized,
    /// an unrecoverable sampled chunk is skipped — with a recorded warning,
    /// counted in `DeploymentReport::degraded_events`.  Logic errors
    /// (duplicate ids, schema mismatches) still abort.
    RetryPolicy retry;
    /// Staleness bound K for overload publish gating: while the ingest
    /// admission controller reports kOverloaded, per-chunk snapshot
    /// republishes are skipped — serving keeps answering from the last
    /// epoch — but never for more than K-1 consecutive chunks, so the
    /// served snapshot is at most K chunks old.  0 disables the gate
    /// (publish every chunk regardless of load).  Inert without a serving
    /// attachment or without RunShaped.
    size_t publish_staleness_bound_chunks = 4;
  };

  Deployment(std::string strategy_name, Options options,
             std::unique_ptr<Pipeline> pipeline,
             std::unique_ptr<LinearModel> model,
             std::unique_ptr<Optimizer> optimizer,
             std::unique_ptr<Metric> metric);
  virtual ~Deployment() = default;

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Trains the initial model over `bootstrap` chunks (pipeline statistics
  /// are folded in; chunks are ingested into the store as historical data).
  /// Mirrors the paper's initial training on day 0 / Jan-2015.  Not counted
  /// in the deployment cost.
  Status InitialTrain(const std::vector<RawChunk>& bootstrap,
                      const BatchTrainer::Options& train_options);

  /// Replays the deployment stream and produces the report.  Cost counters
  /// and μ accounting start from zero at the beginning of the replay.
  Result<DeploymentReport> Run(const std::vector<RawChunk>& stream);

  /// Replays the stream through a bounded admission queue: chunks arrive on
  /// the stream's event clock (`event_time_seconds`, as written by the
  /// traffic shaper), the consumer drains one chunk per
  /// `admission->options().service_seconds_per_chunk` of that clock, and
  /// `admission`'s policy decides what happens when the queue fills (shed
  /// oldest/newest, block with timeout, degrade).  While the controller
  /// reports pressure, proactive training defers and — with a serving
  /// attachment — per-chunk republishes are gated by
  /// `publish_staleness_bound_chunks`.  When the queue never fills the
  /// replay is bit-identical to `Run` on the same stream.  `admission` is
  /// borrowed for the duration of the call and must be fresh: its counters
  /// become the report's `ingest`, and the admission accounting identities
  /// are checked against this replay before it returns.
  Result<DeploymentReport> RunShaped(const std::vector<RawChunk>& stream,
                                     AdmissionController* admission);

  /// Attaches the serving tier (both pointers borrowed; nullptr detaches).
  /// Once attached, the deployment publishes a fresh snapshot epoch at the
  /// end of InitialTrain, at the start of Run, after each chunk's online
  /// path (and mid-chunk — after the statistics update, before the online
  /// SGD — when `serve_evaluation` is set), and after checkpoint restores
  /// / redeployments; strategies publish after their own training steps.
  ///
  /// With `serve_evaluation` true and both `publisher` and `service`
  /// non-null, the prequential evaluate step of every chunk routes through
  /// the prediction service against the just-published snapshot
  /// (serve-then-train); otherwise evaluation stays in the loop.  Because
  /// the snapshot is published after the chunk's statistics update and
  /// before its online SGD update, the served scores are bit-identical to
  /// the in-loop evaluate path.  The request hands the service the
  /// features the online path already computed and the statistics version
  /// they came from; a snapshot frozen at that version scores them as
  /// they are, so the chunk is transformed once, and only an older epoch
  /// (a gated publish) transforms it again.  A fresh snapshot's pipeline
  /// therefore first transforms on the first client request that reads
  /// its epoch.  A failed serving request (injected fault, stopped
  /// service) falls back to the in-loop path — accounted in
  /// `serving.eval_fallbacks` and `DeploymentReport::degraded_events` —
  /// so the quality curve never loses observations.
  void AttachServing(serving::SnapshotPublisher* publisher,
                     serving::PredictionService* service,
                     bool serve_evaluation);

  /// Publishes the current deployed state (0 if no publisher attached).
  uint64_t PublishSnapshot() { return pipeline_manager_->PublishSnapshot(); }

  const std::string& strategy_name() const { return strategy_name_; }
  const PipelineManager& pipeline_manager() const { return *pipeline_manager_; }
  const DataManager& data_manager() const { return data_manager_; }
  const CostModel& cost() const { return cost_; }

  /// Per-chunk outcome handed to the strategy hook: how many prediction
  /// queries the chunk contributed and their mean error signal (error
  /// fraction for classification, mean squared error for regression) —
  /// the input of drift detectors.
  struct ChunkOutcome {
    int64_t rows = 0;
    double mean_error_signal = 0.0;
    /// Wall-clock seconds spent answering this chunk's prediction queries.
    double prediction_seconds = 0.0;
    /// Event-time seconds since the previous chunk (the arrival period).
    double event_period_seconds = 0.0;
  };

 protected:
  /// Strategy hook, invoked after the online path of each chunk.
  /// `stream_index` counts chunks within the current Run (0-based).
  virtual Status AfterChunk(size_t stream_index, const RawChunk& chunk,
                            const ChunkOutcome& outcome) = 0;

  PipelineManager& pipeline_manager() { return *pipeline_manager_; }
  DataManager& data_manager() { return data_manager_; }
  ProactiveTrainer& trainer() { return trainer_; }
  ExecutionEngine& engine() { return engine_; }
  CostModel& cost() { return cost_; }
  Rng& rng() { return rng_; }
  const Options& options() const { return options_; }

  /// Ingest load state seen by strategy hooks: the active admission
  /// controller's state during RunShaped, kNormal otherwise.  Strategies use
  /// it to defer optional work (proactive iterations, drift bursts) while
  /// the ingest queue is backed up.
  LoadState load_state() const {
    return active_admission_ != nullptr ? active_admission_->state()
                                        : LoadState::kNormal;
  }

 public:
  /// Process-unique id assigned at construction (from 1), used as the
  /// `deployment` half of every correlation id this instance emits.
  uint32_t deployment_id() const { return deployment_id_; }

 private:
  /// Mutable per-replay bookkeeping threaded through ProcessStreamChunk.
  struct RunState;

  /// The per-chunk online path, one flow with or without a serving tier:
  /// preprocess → publish (a no-op without a publisher) → evaluate, via
  /// the prediction service when serve-eval is routed → online SGD.
  /// `gate_publish` suppresses the mid-chunk snapshot publish (overload
  /// gating) — the serve-eval path then answers from the last published
  /// epoch.
  Result<FeatureChunk> RunOnlinePath(const RawChunk& chunk,
                                     PrequentialEvaluator* evaluator,
                                     bool gate_publish);

  /// One chunk of the shared replay protocol: ingest-with-retry, online
  /// path, feature materialization (skipped for degraded admits), strategy
  /// hook, publish cadence, report row.  Identical call sequence whether
  /// invoked from the plain or the shaped replay loop.
  Status ProcessStreamChunk(RunState* state, const RawChunk& chunk,
                            bool degraded_admit);

  /// Shared replay driver: plain in-order when `admission` is null,
  /// otherwise the virtual-time admission simulation.
  Result<DeploymentReport> RunImpl(const std::vector<RawChunk>& stream,
                                   AdmissionController* admission);

  std::string strategy_name_;
  uint32_t deployment_id_;
  Options options_;
  CostModel cost_;
  DataManager data_manager_;
  ExecutionEngine engine_;
  std::unique_ptr<PipelineManager> pipeline_manager_;
  ProactiveTrainer trainer_;
  std::unique_ptr<Metric> metric_prototype_;
  Rng rng_;

  // Serving attachment (all borrowed; see AttachServing).
  serving::SnapshotPublisher* serving_publisher_ = nullptr;
  serving::PredictionService* serving_service_ = nullptr;
  bool serve_evaluation_ = false;
  /// Reader for the serve-eval path; owned here, used only by the Run
  /// thread (SnapshotReader is single-threaded by contract).
  std::unique_ptr<serving::SnapshotReader> serve_reader_;
  /// Borrowed for the duration of RunShaped; null in a plain Run.
  AdmissionController* active_admission_ = nullptr;
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_DEPLOYMENT_H_

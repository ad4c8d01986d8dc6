#ifndef CDPIPE_CORE_PROACTIVE_TRAINER_H_
#define CDPIPE_CORE_PROACTIVE_TRAINER_H_

#include <functional>
#include <vector>

#include "src/common/retry.h"
#include "src/common/status.h"
#include "src/core/data_manager.h"
#include "src/core/pipeline_manager.h"
#include "src/engine/execution_engine.h"
#include "src/obs/decision.h"

namespace cdpipe {

/// The one training path of every deployment strategy (paper §3.3 / §4.4).
/// A strategy selects chunks, `DataManager::Resolve` splits them into
/// materialized and evicted ones, and this trainer rebuilds the evicted
/// ones (dynamic materialization, §3.2) — in parallel when the execution
/// engine has more than one thread — and runs the strategy's step over the
/// result under one retry-and-degrade contract: a chunk that cannot be
/// re-materialized even after retries and a serial fallback is skipped
/// with a recorded warning (`training.chunks_skipped`) instead of aborting
/// the run; likewise a training step that keeps failing transiently is
/// skipped (`training.iterations_degraded`).  The proactive step
/// (`RunIteration`) is exactly one iteration of mini-batch SGD; the
/// periodical step is a full BatchTrainer pass (PeriodicalDeployment).
///
/// Because the optimizer carries all cross-iteration state (model weights,
/// learning-rate adaptation), iterations are conditionally independent and
/// can run at arbitrary times without any warm-up.
class ProactiveTrainer {
 public:
  /// `retry` applies to the serial re-materialization fallback and to the
  /// training step (the engine applies its own policy to parallel tasks).
  ProactiveTrainer(PipelineManager* pipeline_manager, ExecutionEngine* engine,
                   RetryPolicy retry);

  /// One proactive iteration over a resolved sample: `Rebuild`, then one
  /// mini-batch SGD step over the whole sample (`RunStep`).
  /// `proactive.iterations` counts every iteration run, empty and skipped
  /// ones included; `proactive.rows_trained` counts the rows of applied
  /// steps only.
  Status RunIteration(const DataManager::SampleSet& sample);

  /// The only code that rebuilds evicted chunks for training.  Fans the
  /// sample's evicted chunks out over the engine, each task under its
  /// chunk's correlation id and journaling a `recompute`; a chunk that
  /// fails there gets one serial fallback, and one that still fails is
  /// dropped with a `chunk_skipped` degrade.  Returns the training chunks:
  /// the sample's materialized ones followed by the rebuilt ones, each in
  /// sample order.  The rebuilt chunks are stored in `*rebuilt`, which must
  /// outlive the returned pointers.
  Result<std::vector<const FeatureData*>> Rebuild(
      const DataManager::SampleSet& sample,
      std::vector<FeatureChunk>* rebuilt);

  /// Runs one training step under the retry policy.  `step` must be safe to
  /// re-run after a failure: it may commit state only once it succeeds.
  /// When a transient failure outlasts the retries, the step is skipped —
  /// recorded as the `skipped` decision (counted in
  /// `training.iterations_degraded`) — and OK is returned; a failure that
  /// cannot be retried propagates.
  Status RunStep(const char* op_name, obs::Decision skipped,
                 const std::function<Status()>& step);

  /// Wall-clock seconds of the latest iteration (the dynamic scheduler's
  /// training-time input).  Counts and latency distributions live in the
  /// `proactive.*` metrics.
  double last_duration_seconds() const { return last_duration_seconds_; }

 private:
  PipelineManager* pipeline_manager_;
  ExecutionEngine* engine_;
  RetryPolicy retry_;
  double last_duration_seconds_ = 0.0;
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_PROACTIVE_TRAINER_H_

#ifndef CDPIPE_CORE_PROACTIVE_TRAINER_H_
#define CDPIPE_CORE_PROACTIVE_TRAINER_H_

#include <vector>

#include "src/common/retry.h"
#include "src/common/status.h"
#include "src/core/admission.h"
#include "src/core/data_manager.h"
#include "src/core/pipeline_manager.h"
#include "src/engine/execution_engine.h"

namespace cdpipe {

/// Executes proactive training (paper §3.3 / §4.4): each invocation is
/// exactly one iteration of mini-batch SGD over a sample of the historical
/// data.  Evicted chunks in the sample are first re-materialized through
/// the deployed pipeline (dynamic materialization, §3.2) — in parallel when
/// the execution engine has more than one thread.
///
/// Because the optimizer carries all cross-iteration state (model weights,
/// learning-rate adaptation), iterations are conditionally independent and
/// can run at arbitrary times without any warm-up.
class ProactiveTrainer {
 public:
  struct Options {
    /// Applied to the serial re-materialization fallback and to the SGD
    /// step (the engine applies its own policy to parallel tasks).
    RetryPolicy retry;
    /// Graceful degradation: when a sampled chunk cannot be
    /// re-materialized even after retries and a serial fallback, skip it
    /// with a recorded warning (`proactive.chunks_skipped`) instead of
    /// aborting the run; likewise a train step that keeps failing
    /// transiently skips the iteration.  Disabled, any failure propagates.
    bool degrade_on_failure = true;
  };

  ProactiveTrainer(PipelineManager* pipeline_manager, ExecutionEngine* engine);
  ProactiveTrainer(PipelineManager* pipeline_manager, ExecutionEngine* engine,
                   Options options);

  /// One proactive iteration over an already-drawn sample.
  Status RunIteration(const DataManager::SampleSet& sample);

  /// Records an iteration that came due but was deferred by overload gating
  /// (`proactive.iterations_deferred`; journaled as a kDegrade event).
  void RecordDeferred(LoadState state);

  /// Wall-clock seconds of the latest iteration (the dynamic scheduler's
  /// training-time input).  Counts and latency distributions live in the
  /// `proactive.*` metrics.
  double last_duration_seconds() const { return last_duration_seconds_; }

 private:
  PipelineManager* pipeline_manager_;
  ExecutionEngine* engine_;
  Options options_;
  double last_duration_seconds_ = 0.0;
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_PROACTIVE_TRAINER_H_

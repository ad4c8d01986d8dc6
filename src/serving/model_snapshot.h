#ifndef CDPIPE_SERVING_MODEL_SNAPSHOT_H_
#define CDPIPE_SERVING_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "src/ml/linear_model.h"
#include "src/pipeline/pipeline.h"

namespace cdpipe {
namespace serving {

/// One immutable epoch of the deployed state: everything a prediction
/// request needs, frozen at publish time.
///
/// The triple is *deep-frozen*: the pipeline is a Clone() of the live one
/// (own component statistics and compiled plan; no statistic is reachable
/// from the trainer's copy), and the model is a value copy of the live
/// weights.  The clone shares the live pipeline's scratch pool, which holds
/// only per-block buffers leased to one thread at a time and a memo that
/// checks whose state it describes (Pipeline::Clone), so serving and
/// training warm the same buffers without ever reading each other's
/// statistics.  After construction nothing ever writes to a
/// snapshot; readers only call the const transform/predict paths, which are
/// safe to run from any number of threads concurrently (the compiled plan
/// and scratch pool sit behind their own locks, component drop counters are
/// atomics, and statistics are never touched outside Update — which is
/// never called on a snapshot).
///
/// Train/serve consistency (paper §4.3) is preserved per epoch: the
/// pipeline statistics and the model weights in one snapshot were published
/// together from one quiescent point of the deployment loop, so a request
/// is never answered with a model trained against newer statistics than the
/// ones transforming its features.
struct ModelSnapshot {
  /// Publisher-assigned epoch, starting at 1 and strictly increasing.
  uint64_t epoch = 0;
  /// Deep-frozen preprocessing pipeline (statistics as of publish).
  std::shared_ptr<const Pipeline> pipeline;
  /// Deployed model weights as of publish.
  std::shared_ptr<const LinearModel> model;
  /// The live pipeline's statistics version at publish time.  Lets the
  /// publisher share one pipeline clone across consecutive epochs whose
  /// statistics did not change (model-only republish after a proactive
  /// step), and lets a serve-eval request score the features the online
  /// path computed under these statistics instead of transforming again.
  uint64_t pipeline_version = 0;
  /// Publish instant on the Tracer::NowMicros timebase.
  int64_t published_us = 0;
  /// Torn-publish canary: written equal to `epoch` as the last field of the
  /// snapshot before the pointer swap.  A reader that ever observes a
  /// snapshot failing Consistent() has found a torn publish (counted in
  /// `serving.torn_reads`; always zero by construction).
  uint64_t epoch_check = 0;

  bool Consistent() const {
    return epoch != 0 && epoch == epoch_check && pipeline != nullptr &&
           model != nullptr;
  }
};

}  // namespace serving
}  // namespace cdpipe

#endif  // CDPIPE_SERVING_MODEL_SNAPSHOT_H_

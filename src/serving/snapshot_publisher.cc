#include "src/serving/snapshot_publisher.h"

#include <utility>

#include "src/common/string_util.h"
#include "src/obs/decision.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace serving {

namespace {

obs::Gauge* EpochGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "serving.snapshot_epoch", "Latest published serving snapshot epoch");
  return g;
}

obs::Counter* PipelineReusedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serving.snapshot_pipeline_reused",
      "Publishes that shared the previous epoch's frozen pipeline");
  return c;
}

obs::Counter* StaleReadCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serving.stale_reads",
      "Reader-observed epoch regressions (0 unless the swap protocol is "
      "broken)");
  return c;
}

obs::Counter* TornReadCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serving.torn_reads",
      "Reader-observed inconsistent snapshots (0 by construction)");
  return c;
}

}  // namespace

SnapshotPublisher::SnapshotPublisher() {
  // Touch the serving metrics so they exist (at zero) from construction:
  // the CI smoke gate asserts on serving.stale_reads before any reader has
  // ever had a chance to increment it.
  EpochGauge();
  PipelineReusedCounter();
  StaleReadCounter();
  TornReadCounter();
}

uint64_t SnapshotPublisher::PublishFrom(const Pipeline& pipeline,
                                        const LinearModel& model) {
  auto snapshot = std::make_shared<ModelSnapshot>();
  const uint64_t live_version = pipeline.state_version();
  // Model-only republish: if the live pipeline's statistics have not
  // changed since the previous epoch, the previous epoch's frozen pipeline
  // is still an exact deep copy of the live one — share it instead of
  // cloning again.  (Clone() bumps nothing and the shared pipeline is
  // immutable, so epochs sharing it stay independent.)
  std::shared_ptr<const ModelSnapshot> prev = Acquire();
  if (prev != nullptr && prev->pipeline_version == live_version) {
    snapshot->pipeline = prev->pipeline;
    PipelineReusedCounter()->Increment();
  } else {
    snapshot->pipeline = std::shared_ptr<const Pipeline>(pipeline.Clone());
  }
  snapshot->model = std::make_shared<const LinearModel>(model);
  snapshot->pipeline_version = live_version;
  return Publish(std::move(snapshot));
}

uint64_t SnapshotPublisher::Publish(std::shared_ptr<ModelSnapshot> snapshot) {
  uint64_t epoch = 0;
  bool swapped = false;
  const uint64_t version = snapshot->pipeline_version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = epoch_.load(std::memory_order_relaxed) + 1;
    snapshot->epoch = epoch;
    snapshot->published_us = obs::Tracer::NowMicros();
    // Canary last: a reader that sees epoch != epoch_check caught a torn
    // publish (impossible under the lock, but the reader checks anyway).
    snapshot->epoch_check = epoch;
    swapped = (current_ != nullptr);
    current_ = std::move(snapshot);
    // Release-store after the swap: a reader that observes the new epoch
    // is guaranteed to find (at least) that snapshot behind the lock.
    epoch_.store(epoch, std::memory_order_release);
  }
  EpochGauge()->Set(static_cast<double>(epoch));
  obs::Record(obs::Decision::kSnapshotPublish,
              StrFormat("epoch=%llu version=%llu",
                        static_cast<unsigned long long>(epoch),
                        static_cast<unsigned long long>(version)));
  if (swapped) {
    obs::Record(obs::Decision::kSnapshotSwap,
                StrFormat("epoch=%llu",
                          static_cast<unsigned long long>(epoch)));
  }
  return epoch;
}

std::shared_ptr<const ModelSnapshot> SnapshotPublisher::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::shared_ptr<const ModelSnapshot> SnapshotReader::Current() {
  const uint64_t latest = publisher_->epoch();
  if (latest == cached_epoch_) {
    return cached_;  // fast path: one atomic load, no lock
  }
  std::shared_ptr<const ModelSnapshot> fresh = publisher_->Acquire();
  const uint64_t fresh_epoch = fresh != nullptr ? fresh->epoch : 0;
  if (fresh_epoch < cached_epoch_) {
    // Epoch regression: the publisher handed us something older than we
    // already saw.  Keep the newer cached snapshot and account the
    // violation.
    ++stale_reads_;
    StaleReadCounter()->Increment();
    return cached_;
  }
  if (fresh != nullptr && !fresh->Consistent()) {
    ++torn_reads_;
    TornReadCounter()->Increment();
    return cached_;
  }
  cached_ = std::move(fresh);
  cached_epoch_ = fresh_epoch;
  return cached_;
}

}  // namespace serving
}  // namespace cdpipe

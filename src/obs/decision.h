#ifndef CDPIPE_OBS_DECISION_H_
#define CDPIPE_OBS_DECISION_H_

#include <cstdint>
#include <optional>
#include <source_location>
#include <string_view>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/obs/correlation.h"
#include "src/obs/event_journal.h"

namespace cdpipe {
namespace obs {

/// Every decision the system records, each declared once:
///   X(name, journal kind, fixed detail, counter, log level).
/// A record journals the kind with the fixed detail followed by the
/// record's `why` (DESIGN.md lists each decision's), adds one to the
/// counter (nullptr: none; several decisions may share one) and logs one
/// line at the level (NotLogged: never).
// clang-format off
#define CDPIPE_OBS_DECISIONS(X)                                               \
  X(Ingest, Ingest, "", "chunk_store.raw_inserted", NotLogged)                \
  X(MaterializeHit, MaterializeHit, "", "chunk_store.sample_hits", NotLogged) \
  X(MaterializeMiss, MaterializeMiss, "", "chunk_store.sample_misses",        \
    NotLogged)                                                                \
  X(Sample, Sample, "", nullptr, NotLogged)                                   \
  X(SampleChunkUnavailable, Degrade, "sample_chunk_unavailable", nullptr,     \
    NotLogged)                                                                \
  X(EvictFeatures, Evict, "features", "chunk_store.evictions", NotLogged)     \
  X(EvictFeaturesLru, Evict, "features_lru", "chunk_store.evictions",         \
    NotLogged)                                                                \
  X(EvictRaw, Evict, "raw", "chunk_store.raw_dropped", NotLogged)             \
  X(EvictRawCorrupt, Evict, "raw_corrupt", nullptr, NotLogged)                \
  X(Spill, Spill, "", "chunk_store.chunks_spilled", NotLogged)                \
  X(SpillWriteFailed, Degrade, "spill_write_failed",                          \
    "chunk_store.spill_failures", NotLogged)                                  \
  X(DiskLoad, DiskLoad, "", "chunk_store.disk_loads", NotLogged)              \
  X(PrefetchHit, PrefetchHit, "", "chunk_store.prefetch_hits", NotLogged)     \
  X(SpillReadFailed, Degrade, "spill_read_failed", nullptr, NotLogged)        \
  X(SpillCorruptDropped, Degrade, "spill_corrupt_dropped", nullptr, Warning)  \
  X(Recompute, Recompute, "", "training.chunks_rematerialized", NotLogged)    \
  X(RecomputeFallback, Recompute, "fallback",                                 \
    "training.chunks_rematerialized", NotLogged)                              \
  X(ChunkSkipped, Degrade, "chunk_skipped", "training.chunks_skipped",        \
    Warning)                                                                  \
  X(TrainStep, TrainStep, "", nullptr, NotLogged)                             \
  X(SgdStepSkipped, Degrade, "sgd_step_skipped",                              \
    "training.iterations_degraded", Warning)                                  \
  X(Retrain, TrainStep, "retrain", "deployment.retrainings", NotLogged)       \
  X(RetrainSkipped, Degrade, "retrain_skipped",                               \
    "training.iterations_degraded", Warning)                                  \
  X(ProactiveDeferred, Degrade, "proactive_deferred",                         \
    "proactive.iterations_deferred", Info)                                    \
  X(DriftTrigger, DriftTrigger, "", "deployment.drift_events", NotLogged)     \
  X(IngestFailed, Degrade, "ingest_failed", "deployment.ingest_failed",       \
    Warning)                                                                  \
  X(StoreFeaturesFailed, Degrade, "store_features_failed",                    \
    "deployment.store_features_failed", Warning)                              \
  X(ServeEvalFallback, Degrade, "serving_eval_fallback",                      \
    "serving.eval_fallbacks", Warning)                                        \
  X(DegradedAdmit, Degrade, "degraded_admit_skip_materialize", nullptr,       \
    NotLogged)                                                                \
  X(Admit, Admit, "", "ingest.admitted", NotLogged)                           \
  X(ShedOldest, Shed, "reason=oldest", "ingest.shed", Info)                   \
  X(ShedNewest, Shed, "reason=newest", "ingest.shed", Info)                   \
  X(ShedTimeout, Shed, "reason=timeout", "ingest.shed", Info)                 \
  X(PressureChange, PressureChange, "", "ingest.pressure_changes", Info)      \
  X(SnapshotPublish, SnapshotPublish, "", "serving.publishes", NotLogged)     \
  X(SnapshotSwap, SnapshotSwap, "", nullptr, NotLogged)                       \
  X(ServingShed, Shed, "reason=serving_timeout", "serving.shed", Info)        \
  X(Retry, Retry, "", "retry.attempts", Warning)                              \
  X(RetryExhausted, RetryExhausted, "", "retry.exhausted", Error)             \
  X(PlanCompile, PlanCompile, "", "pipeline.fused_plans", NotLogged)          \
  X(CheckpointSave, Checkpoint, "save", nullptr, NotLogged)                   \
  X(CheckpointLoad, Checkpoint, "load", nullptr, NotLogged)                   \
  X(Stall, Stall, "", "obs.stalls", Warning)                                  \
  X(Recover, Recover, "", "obs.recoveries", Info)
// clang-format on

enum class Decision : uint8_t {
#define CDPIPE_OBS_DECISION_ENUM(name, ...) k##name,
  CDPIPE_OBS_DECISIONS(CDPIPE_OBS_DECISION_ENUM)
#undef CDPIPE_OBS_DECISION_ENUM
  kNumDecisions,
};

/// One decision's declaration, as listed in CDPIPE_OBS_DECISIONS.
struct DecisionSpec {
  EventKind kind;
  const char* detail;
  const char* counter;
  std::optional<LogLevel> level;
};

const DecisionSpec& SpecOf(Decision decision);

/// Records one decision: appends its journal event under `corr`, adds one
/// to its counter, and logs one line at its level — formatted only when
/// that level is on, and ending with `cause` when that is an error.  Beyond
/// the append it costs one relaxed add and one level check: counters are
/// registered once, at startup.  `journal` is the process journal unless a
/// test substitutes one (the watchdog's seam).
void Record(EventJournal& journal, Decision decision, CorrelationId corr,
            std::string_view why = {}, const Status& cause = Status::OK(),
            std::source_location where = std::source_location::current());

inline void Record(
    Decision decision, CorrelationId corr, std::string_view why = {},
    const Status& cause = Status::OK(),
    std::source_location where = std::source_location::current()) {
  Record(EventJournal::Global(), decision, corr, why, cause, where);
}

/// Records under the calling thread's CorrelationScope.
inline void Record(
    Decision decision, std::string_view why = {},
    const Status& cause = Status::OK(),
    std::source_location where = std::source_location::current()) {
  Record(EventJournal::Global(), decision, CorrelationScope::Current(), why,
         cause, where);
}

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_DECISION_H_

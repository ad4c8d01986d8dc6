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
///   X(name, journal kind, fixed detail, counter, counter help, log level).
/// A record journals the decision, which /events shows as its kind with
/// the fixed detail followed by the record's `why` (DESIGN.md lists each
/// decision's), adds one to the counter (nullptr: none; several decisions
/// may share one, and one of them gives its exporter `# HELP` text) and
/// logs one line at the level (NotLogged: never).
// clang-format off
#define CDPIPE_OBS_DECISIONS(X)                                               \
  X(Ingest, "ingest", "", "chunk_store.raw_inserted", nullptr, NotLogged)     \
  X(MaterializeHit, "materialize_hit", "", "chunk_store.sample_hits",         \
    nullptr, NotLogged)                                                       \
  X(MaterializeMiss, "materialize_miss", "", "chunk_store.sample_misses",     \
    nullptr, NotLogged)                                                       \
  X(Sample, "sample", "", nullptr, nullptr, NotLogged)                        \
  X(SampleChunkUnavailable, "degrade", "sample_chunk_unavailable",            \
    "chunk_store.sample_misses", nullptr, NotLogged)                          \
  X(EvictFeatures, "evict", "features", "chunk_store.evictions", nullptr,     \
    NotLogged)                                                                \
  X(EvictFeaturesLru, "evict", "features_lru", "chunk_store.evictions",       \
    nullptr, NotLogged)                                                       \
  X(EvictRaw, "evict", "raw", "chunk_store.raw_dropped", nullptr, NotLogged)  \
  X(EvictRawCorrupt, "evict", "raw_corrupt", nullptr, nullptr, NotLogged)     \
  X(Spill, "spill", "", "chunk_store.chunks_spilled", nullptr, NotLogged)     \
  X(SpillWriteFailed, "degrade", "spill_write_failed",                        \
    "chunk_store.spill_failures", nullptr, NotLogged)                         \
  X(DiskLoad, "disk_load", "", "chunk_store.disk_loads", nullptr, NotLogged)  \
  X(PrefetchHit, "prefetch_hit", "", "chunk_store.prefetch_hits", nullptr,    \
    NotLogged)                                                                \
  X(SpillReadFailed, "degrade", "spill_read_failed", nullptr, nullptr,        \
    NotLogged)                                                                \
  X(SpillCorruptDropped, "degrade", "spill_corrupt_dropped", nullptr,         \
    nullptr, Warning)                                                         \
  X(Recompute, "recompute", "", "training.chunks_rematerialized", nullptr,    \
    NotLogged)                                                                \
  X(RecomputeFallback, "recompute", "fallback",                               \
    "training.chunks_rematerialized", nullptr, NotLogged)                     \
  X(ChunkSkipped, "degrade", "chunk_skipped", "training.chunks_skipped",      \
    nullptr, Warning)                                                         \
  X(TrainStep, "train_step", "", nullptr, nullptr, NotLogged)                 \
  X(SgdStepSkipped, "degrade", "sgd_step_skipped",                            \
    "training.iterations_degraded", nullptr, Warning)                         \
  X(Retrain, "train_step", "retrain", "deployment.retrainings", nullptr,      \
    NotLogged)                                                                \
  X(RetrainSkipped, "degrade", "retrain_skipped",                             \
    "training.iterations_degraded", nullptr, Warning)                         \
  X(ProactiveDeferred, "degrade", "proactive_deferred",                       \
    "proactive.iterations_deferred",                                          \
    "Proactive iterations deferred while the ingest queue was loaded", Info)  \
  X(DriftTrigger, "drift_trigger", "", "deployment.drift_events", nullptr,    \
    NotLogged)                                                                \
  X(IngestFailed, "degrade", "ingest_failed", "deployment.ingest_failed",     \
    nullptr, Warning)                                                         \
  X(StoreFeaturesFailed, "degrade", "store_features_failed",                  \
    "deployment.store_features_failed", nullptr, Warning)                     \
  X(ServeEvalFallback, "degrade", "serving_eval_fallback",                    \
    "serving.eval_fallbacks",                                                 \
    "Serve-eval requests that fell back to the in-loop evaluate", Warning)    \
  X(DegradedAdmit, "degrade", "degraded_admit_skip_materialize", nullptr,     \
    nullptr, NotLogged)                                                       \
  X(Admit, "admit", "", "ingest.admitted",                                    \
    "Chunks admitted into the ingest queue", NotLogged)                       \
  X(ShedOldest, "shed", "reason=oldest", "ingest.shed",                       \
    "Chunks dropped by admission control", Info)                              \
  X(ShedNewest, "shed", "reason=newest", "ingest.shed", nullptr, Info)        \
  X(ShedTimeout, "shed", "reason=timeout", "ingest.shed", nullptr, Info)      \
  X(PressureChange, "pressure_change", "", "ingest.pressure_changes",         \
    "Ingest load-state transitions", Info)                                    \
  X(SnapshotPublish, "snapshot_publish", "", "serving.publishes",             \
    "Serving snapshot epochs published", NotLogged)                           \
  X(SnapshotSwap, "snapshot_swap", "", nullptr, nullptr, NotLogged)           \
  X(ServingShed, "shed", "reason=serving_timeout", "serving.shed",            \
    "Prediction requests dropped at a full queue (admission timeout)", Info)  \
  X(Retry, "retry", "", "retry.attempts", nullptr, Warning)                   \
  X(RetryExhausted, "retry_exhausted", "", "retry.exhausted", nullptr, Error) \
  X(PlanCompile, "plan_compile", "", "pipeline.fused_plans",                  \
    "Fused plans compiled", NotLogged)                                        \
  X(CheckpointSave, "checkpoint", "save", nullptr, nullptr, NotLogged)        \
  X(CheckpointLoad, "checkpoint", "load", nullptr, nullptr, NotLogged)        \
  X(Stall, "stall", "", "obs.stalls", nullptr, Warning)                       \
  X(Recover, "recover", "", "obs.recoveries", nullptr, Info)
// clang-format on

enum class Decision : uint8_t {
#define CDPIPE_OBS_DECISION_ENUM(name, ...) k##name,
  CDPIPE_OBS_DECISIONS(CDPIPE_OBS_DECISION_ENUM)
#undef CDPIPE_OBS_DECISION_ENUM
  kNumDecisions,
};

/// One decision's declaration, as listed in CDPIPE_OBS_DECISIONS.
struct DecisionSpec {
  const char* kind;
  const char* detail;
  const char* counter;
  const char* help;
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

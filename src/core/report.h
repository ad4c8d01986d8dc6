#ifndef CDPIPE_CORE_REPORT_H_
#define CDPIPE_CORE_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/cost_model.h"
#include "src/obs/metrics.h"
#include "src/storage/chunk_store.h"

namespace cdpipe {

/// Everything a deployment run produces: the quality curve (prequential
/// error over time), the cost curve (cumulative seconds and work units),
/// and the final counters — the raw material for every figure and table in
/// the paper's evaluation.
struct DeploymentReport {
  /// One row per processed chunk.
  struct PointRow {
    int64_t chunk_index = 0;
    int64_t observations = 0;        ///< prequential observations so far
    double cumulative_error = 0.0;   ///< cumulative prequential metric
    double windowed_error = 0.0;     ///< sliding-window metric
    double cumulative_seconds = 0.0; ///< total cost so far (wall clock)
    int64_t cumulative_work = 0;     ///< total work units so far
  };

  std::string strategy;
  std::string metric_name;
  std::vector<PointRow> curve;

  double final_error = 0.0;
  double average_error = 0.0;  ///< mean of the per-chunk cumulative metric
  double total_seconds = 0.0;
  int64_t total_work = 0;

  CostModel cost;
  /// The chunk store's counters at the end of the run.  The disk tier's
  /// figures (spills, loads, per-tier μ, prefetch hit rate, compression
  /// ratio) are read from here; all are zero without a disk tier.
  ChunkStore::Counters storage;
  /// Per-run delta of the global metrics registry (counters and histogram
  /// buckets recorded during this Run; gauges hold end-of-run values).
  /// Export with obs::ToJson / obs::ToPrometheusText.
  obs::MetricsSnapshot metrics;
  double empirical_mu = 0.0;
  int64_t proactive_iterations = 0;
  double average_proactive_seconds = 0.0;
  int64_t retrainings = 0;
  int64_t drift_events = 0;
  int64_t chunks_processed = 0;
  int64_t initial_training_epochs = 0;

  /// Robustness accounting for this run (derived from the metrics delta):
  /// fired fault-injection sites, transient retries, operations whose
  /// retries were exhausted, and degradation events (chunks processed
  /// without storage, left unmaterialized, or dropped from a proactive
  /// sample).  All zero in a healthy, uninstrumented run.
  int64_t faults_injected = 0;
  int64_t retry_attempts = 0;
  int64_t retries_exhausted = 0;
  int64_t degraded_events = 0;
  int64_t proactive_chunks_skipped = 0;

  /// Serving-tier accounting for this run (all zero when no serving
  /// attachment): requests answered / errored by the prediction front-end,
  /// snapshot epochs published, reader-observed epoch regressions (0
  /// unless the swap protocol is broken), and serve-eval requests that
  /// fell back to the in-loop evaluate path (counted in degraded_events).
  int64_t serving_requests = 0;
  int64_t serving_errors = 0;
  int64_t serving_stale_reads = 0;
  int64_t snapshot_publishes = 0;
  int64_t serving_eval_fallbacks = 0;
  /// Prediction requests rejected by the serving front-end's bounded queue
  /// (admission timeout).  The serving-side twin of `ingest_shed`.
  int64_t serving_shed = 0;

  /// Overload-resilience accounting (all zero in a plain Run — only
  /// RunShaped attaches an AdmissionController).  The identities
  /// `ingest_offered == ingest_admitted + ingest_shed_newest +
  /// ingest_shed_timeout` and `chunks_processed == ingest_admitted -
  /// ingest_shed_oldest` hold exactly; shed counts depend only on arrival
  /// times and admission options, never on injected faults or threads.
  int64_t ingest_offered = 0;
  int64_t ingest_admitted = 0;
  int64_t ingest_degraded_admits = 0;
  int64_t ingest_shed = 0;
  int64_t ingest_shed_oldest = 0;
  int64_t ingest_shed_newest = 0;
  int64_t ingest_shed_timeout = 0;
  int64_t ingest_pressure_changes = 0;
  int64_t ingest_peak_queue_depth = 0;
  /// Proactive iterations deferred because the ingest load state was not
  /// normal when they came due.
  int64_t proactive_deferred = 0;
  /// Per-chunk snapshot publishes skipped by the overload gate, and the
  /// worst served-model staleness that gating caused (in chunks; bounded by
  /// Options::publish_staleness_bound_chunks).
  int64_t publish_skipped_overload = 0;
  int64_t max_snapshot_staleness_chunks = 0;

  /// Serializes the curve as CSV with a header row.
  std::string CurveToCsv() const;

  /// Downsamples the curve to at most `points` rows (for compact figures).
  std::vector<PointRow> SampledCurve(size_t points) const;

  /// One-paragraph human-readable summary.
  std::string Summary() const;
};

std::ostream& operator<<(std::ostream& os, const DeploymentReport& report);

}  // namespace cdpipe

#endif  // CDPIPE_CORE_REPORT_H_

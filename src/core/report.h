#ifndef CDPIPE_CORE_REPORT_H_
#define CDPIPE_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/admission.h"
#include "src/core/cost_model.h"
#include "src/obs/metrics.h"
#include "src/storage/chunk_store.h"

namespace cdpipe {

/// Everything a deployment run produces — the raw material for every figure
/// and table in the paper's evaluation.  The report stores each measurement
/// once: the quality curve (prequential error over time), the cost model,
/// the store and admission counters, and the per-run metrics delta.  Every
/// other figure is a const accessor over those members.
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

  /// Seconds and work units per cost phase.
  CostModel cost;
  /// The chunk store's counters at the end of the run.  The disk tier's
  /// figures (spills, loads, per-tier μ, prefetch hit rate, compression
  /// ratio) are read from here; all are zero without a disk tier.
  ChunkStore::Counters storage;
  /// The admission controller's counters; all zero in a plain Run (only
  /// RunShaped attaches a controller).  Shed counts depend only on arrival
  /// times and admission options, never on injected faults or threads, and
  /// RunShaped checks `offered == admitted + shed_newest + shed_timeout`
  /// and `chunks_processed == admitted - shed_oldest` before returning.
  AdmissionController::Counters ingest;
  /// Per-run delta of the global metrics registry (counters and histogram
  /// buckets recorded during this Run; gauges hold end-of-run values).
  /// Export with obs::ToPrometheusText.
  obs::MetricsSnapshot metrics;

  /// Measured by the replay loop and held nowhere else: per-chunk snapshot
  /// publishes skipped by the overload gate, and the worst served-model
  /// staleness that gating caused (in chunks; bounded by
  /// Options::publish_staleness_bound_chunks).
  int64_t publish_skipped_overload = 0;
  int64_t max_snapshot_staleness_chunks = 0;

  /// Plain copies for readers that take them as fields (the deployment
  /// benchmark in deploybench/).  Run assigns each exactly once from the
  /// members above: `final_error` is the last curve row's cumulative
  /// error, `total_work` and `empirical_mu` come from `cost` and
  /// `storage`, `chunks_processed` is the curve length, and the rest are
  /// `metrics` counters.  `degraded_events` sums the degradation
  /// counters: chunks processed without storage or left unmaterialized,
  /// serve-eval fallbacks, sampled chunks dropped from any training step,
  /// and skipped training steps.
  double final_error = 0.0;
  int64_t total_work = 0;
  double empirical_mu = 0.0;
  int64_t chunks_processed = 0;
  int64_t retrainings = 0;
  int64_t degraded_events = 0;
  int64_t serving_stale_reads = 0;

  /// Mean of the per-chunk cumulative metric over the curve.
  double average_error() const;
  /// Total deployment cost in seconds (sum over phases).
  double total_seconds() const { return cost.TotalSeconds(); }

  // Counts from the metrics delta; 0 when the metric never recorded.
  int64_t proactive_iterations() const {
    return metrics.CounterValueOr("proactive.iterations", 0);
  }
  /// Mean of the `proactive.iteration_seconds` histogram.
  double average_proactive_seconds() const;
  int64_t drift_events() const {
    return metrics.CounterValueOr("deployment.drift_events", 0);
  }
  /// Robustness: fired fault-injection sites, transient retries, operations
  /// whose retries were exhausted, and sampled chunks dropped from their
  /// training step.  All zero in a healthy, uninstrumented run.
  int64_t faults_injected() const {
    return metrics.CounterValueOr("fault.injected", 0);
  }
  int64_t retry_attempts() const {
    return metrics.CounterValueOr("retry.attempts", 0);
  }
  int64_t retries_exhausted() const {
    return metrics.CounterValueOr("retry.exhausted", 0);
  }
  int64_t training_chunks_skipped() const {
    return metrics.CounterValueOr("training.chunks_skipped", 0);
  }
  /// Proactive iterations deferred because the ingest load state was not
  /// normal when they came due.
  int64_t proactive_deferred() const {
    return metrics.CounterValueOr("proactive.iterations_deferred", 0);
  }
  /// Serving tier (all zero without a serving attachment): requests
  /// answered / errored by the prediction front-end, snapshot epochs
  /// published, serve-eval requests that fell back to the in-loop evaluate
  /// path, and requests rejected by the front-end's bounded queue (the
  /// serving-side twin of `ingest.shed()`).
  int64_t serving_requests() const {
    return metrics.CounterValueOr("serving.requests", 0);
  }
  int64_t serving_errors() const {
    return metrics.CounterValueOr("serving.errors", 0);
  }
  int64_t snapshot_publishes() const {
    return metrics.CounterValueOr("serving.publishes", 0);
  }
  int64_t serving_eval_fallbacks() const {
    return metrics.CounterValueOr("serving.eval_fallbacks", 0);
  }
  int64_t serving_shed() const {
    return metrics.CounterValueOr("serving.shed", 0);
  }

  /// Downsamples the curve to at most `points` rows (for compact figures).
  std::vector<PointRow> SampledCurve(size_t points) const;

  /// One-paragraph human-readable summary.
  std::string Summary() const;
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_REPORT_H_

#include "src/core/report.h"

#include "src/common/string_util.h"

namespace cdpipe {

std::vector<DeploymentReport::PointRow> DeploymentReport::SampledCurve(
    size_t points) const {
  if (points == 0 || curve.size() <= points) return curve;
  std::vector<PointRow> out;
  out.reserve(points);
  const double stride =
      static_cast<double>(curve.size() - 1) / static_cast<double>(points - 1);
  for (size_t i = 0; i < points; ++i) {
    out.push_back(curve[static_cast<size_t>(i * stride + 0.5)]);
  }
  out.back() = curve.back();
  return out;
}

double DeploymentReport::average_error() const {
  if (curve.empty()) return 0.0;
  double sum = 0.0;
  for (const PointRow& row : curve) sum += row.cumulative_error;
  return sum / static_cast<double>(curve.size());
}

double DeploymentReport::average_proactive_seconds() const {
  for (const auto& h : metrics.histograms) {
    if (h.name == "proactive.iteration_seconds") return h.hist.Mean();
  }
  return 0.0;
}

std::string DeploymentReport::Summary() const {
  std::string out = StrFormat(
      "%s: final %s=%.5f (avg %.5f), cost %.2fs / %lld work units, "
      "proactive=%lld (avg %.4fs), retrainings=%lld, mu=%.3f, "
      "chunks=%lld",
      strategy.c_str(), metric_name.c_str(), final_error, average_error(),
      total_seconds(), static_cast<long long>(total_work),
      static_cast<long long>(proactive_iterations()),
      average_proactive_seconds(),
      static_cast<long long>(retrainings), empirical_mu,
      static_cast<long long>(chunks_processed));
  if (storage.chunks_spilled > 0) {
    out += StrFormat(
        ", spilled=%lld (ratio %.2f), mu_mem=%.3f mu_disk=%.3f, "
        "prefetch_hit_rate=%.2f",
        static_cast<long long>(storage.chunks_spilled),
        storage.SpillCompressionRatio(), storage.MemoryMu(), storage.DiskMu(),
        storage.PrefetchHitRate());
  }
  if (ingest.offered > 0) {
    out += StrFormat(
        ", ingest offered=%lld shed=%lld (oldest=%lld newest=%lld "
        "timeout=%lld) degraded_admits=%lld peak_queue=%lld, "
        "proactive_deferred=%lld, publish_skipped=%lld "
        "max_staleness=%lld chunks",
        static_cast<long long>(ingest.offered),
        static_cast<long long>(ingest.shed()),
        static_cast<long long>(ingest.shed_oldest),
        static_cast<long long>(ingest.shed_newest),
        static_cast<long long>(ingest.shed_timeout),
        static_cast<long long>(ingest.degraded_admits),
        static_cast<long long>(ingest.peak_queue_depth),
        static_cast<long long>(proactive_deferred()),
        static_cast<long long>(publish_skipped_overload),
        static_cast<long long>(max_snapshot_staleness_chunks));
  }
  if (serving_shed() > 0) {
    out += StrFormat(", serving_shed=%lld",
                     static_cast<long long>(serving_shed()));
  }
  return out;
}

}  // namespace cdpipe

#include "src/core/admission.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/decision.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace {

struct AdmissionMetrics {
  obs::Counter* offered;
  obs::Counter* degraded_admits;
  obs::Gauge* queue_depth;
  obs::Gauge* queue_high_watermark;
  obs::Gauge* load_state;

  static const AdmissionMetrics& Get() {
    static const AdmissionMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      AdmissionMetrics m;
      m.offered = registry.GetCounter("ingest.offered",
                                      "Chunks presented for admission");
      m.degraded_admits = registry.GetCounter(
          "ingest.degraded_admits",
          "Chunks admitted under pressure with materialization skipped");
      m.queue_depth =
          registry.GetGauge("ingest.queue_depth", "Queued ingest chunks");
      m.queue_high_watermark = registry.GetGauge(
          "ingest.queue_high_watermark", "Peak ingest queue depth");
      m.load_state = registry.GetGauge(
          "ingest.load_state",
          "Ingest load state (0=normal 1=pressured 2=overloaded)");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

const char* LoadStateName(LoadState state) {
  switch (state) {
    case LoadState::kNormal:
      return "normal";
    case LoadState::kPressured:
      return "pressured";
    case LoadState::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock:
      return "block";
    case AdmissionPolicy::kShedOldest:
      return "shed_oldest";
    case AdmissionPolicy::kShedNewest:
      return "shed_newest";
    case AdmissionPolicy::kDegrade:
      return "degrade";
  }
  return "unknown";
}

AdmissionController::AdmissionController(Options options)
    : options_(options) {
  CDPIPE_CHECK_GT(options_.queue_capacity, 0u);
  if (options_.high_watermark == 0) {
    options_.high_watermark =
        std::max<size_t>(1, options_.queue_capacity * 3 / 4);
  }
  if (options_.low_watermark == 0) {
    options_.low_watermark = options_.queue_capacity / 4;
  }
  options_.high_watermark =
      std::min(options_.high_watermark, options_.queue_capacity);
  CDPIPE_CHECK(options_.low_watermark < options_.high_watermark)
      << "low watermark " << options_.low_watermark
      << " must be below high watermark " << options_.high_watermark;
  CDPIPE_CHECK_GT(options_.service_seconds_per_chunk, 0.0);
  const AdmissionMetrics& metrics = AdmissionMetrics::Get();
  metrics.queue_depth->Set(0.0);
  metrics.load_state->Set(0.0);
}

AdmissionController::~AdmissionController() {
  // Never leave a stale overload verdict on the obs plane after the run's
  // controller is gone (/readyz reads this gauge).
  const AdmissionMetrics& metrics = AdmissionMetrics::Get();
  metrics.queue_depth->Set(0.0);
  metrics.load_state->Set(0.0);
}

double AdmissionController::HeadCompletionSeconds() const {
  CDPIPE_CHECK(!queue_.empty());
  return std::max(drain_free_at_, queue_.front().arrival_seconds) +
         options_.service_seconds_per_chunk;
}

AdmissionController::Admitted AdmissionController::Pop() {
  CDPIPE_CHECK(!queue_.empty());
  Admitted out;
  out.completion_seconds = HeadCompletionSeconds();
  out.chunk = std::move(queue_.front().chunk);
  out.degraded = queue_.front().degraded;
  queue_.pop_front();
  drain_free_at_ = out.completion_seconds;
  UpdateStateAndGauges();
  return out;
}

AdmissionController::Decision AdmissionController::Offer(
    RawChunk* chunk, double arrival_seconds) {
  CDPIPE_CHECK(chunk != nullptr);
  const double now = std::max(arrival_seconds, last_offer_seconds_);
  last_offer_seconds_ = now;
  const AdmissionMetrics& metrics = AdmissionMetrics::Get();

  if (queue_.size() >= options_.queue_capacity &&
      options_.policy == AdmissionPolicy::kBlock) {
    // The caller owns the virtual wait: drain-and-re-offer, or ShedBlocked.
    return Decision::kWouldBlock;
  }

  counters_.offered += 1;
  metrics.offered->Increment();

  Decision decision = Decision::kAdmitted;
  if (queue_.size() >= options_.queue_capacity) {
    switch (options_.policy) {
      case AdmissionPolicy::kShedOldest: {
        const ChunkId victim = queue_.front().chunk.id;
        queue_.pop_front();
        counters_.shed_oldest += 1;
        obs::Record(obs::Decision::kShedOldest,
                    StrFormat("id=%lld depth=%zu",
                              static_cast<long long>(victim), queue_.size()));
        decision = Decision::kAdmittedReplacedOldest;
        break;
      }
      case AdmissionPolicy::kShedNewest:
      case AdmissionPolicy::kDegrade: {
        // kDegrade softens pressure but the capacity stays a hard memory
        // bound: a full queue sheds the arrival.
        counters_.shed_newest += 1;
        obs::Record(obs::Decision::kShedNewest,
                    StrFormat("id=%lld depth=%zu",
                              static_cast<long long>(chunk->id),
                              queue_.size()));
        return Decision::kShed;
      }
      case AdmissionPolicy::kBlock:
        break;  // handled above
    }
  }

  Entry entry;
  entry.degraded = options_.policy == AdmissionPolicy::kDegrade &&
                   state_ != LoadState::kNormal;
  entry.arrival_seconds = now;
  const ChunkId id = chunk->id;
  entry.chunk = std::move(*chunk);
  queue_.push_back(std::move(entry));

  counters_.admitted += 1;
  if (queue_.back().degraded) {
    counters_.degraded_admits += 1;
    metrics.degraded_admits->Increment();
    if (decision == Decision::kAdmitted) decision = Decision::kAdmittedDegraded;
  }
  obs::Record(obs::Decision::kAdmit,
              StrFormat("id=%lld depth=%zu state=%s%s",
                        static_cast<long long>(id), queue_.size(),
                        LoadStateName(state_),
                        queue_.back().degraded ? " degraded" : ""));
  UpdateStateAndGauges();
  return decision;
}

void AdmissionController::ShedBlocked(ChunkId id) {
  counters_.offered += 1;
  counters_.shed_timeout += 1;
  AdmissionMetrics::Get().offered->Increment();
  obs::Record(obs::Decision::kShedTimeout,
              StrFormat("id=%lld depth=%zu", static_cast<long long>(id),
                        queue_.size()));
}

void AdmissionController::UpdateStateAndGauges() {
  const size_t depth = queue_.size();
  LoadState next;
  if (depth >= options_.high_watermark) {
    next = LoadState::kOverloaded;
  } else if (depth <= options_.low_watermark) {
    next = LoadState::kNormal;
  } else {
    // Mid-band keeps the overload verdict sticky (hysteresis) so the gates
    // don't flap around the high watermark.
    next = state_ == LoadState::kOverloaded ? LoadState::kOverloaded
                                            : LoadState::kPressured;
  }
  const AdmissionMetrics& metrics = AdmissionMetrics::Get();
  if (next != state_) {
    counters_.pressure_changes += 1;
    obs::Record(obs::Decision::kPressureChange,
                StrFormat("%s->%s depth=%zu", LoadStateName(state_),
                          LoadStateName(next), depth));
    state_ = next;
  }
  counters_.peak_queue_depth =
      std::max(counters_.peak_queue_depth, static_cast<int64_t>(depth));
  metrics.queue_depth->Set(static_cast<double>(depth));
  metrics.queue_high_watermark->Set(
      static_cast<double>(counters_.peak_queue_depth));
  metrics.load_state->Set(static_cast<double>(static_cast<int>(state_)));
}

}  // namespace cdpipe

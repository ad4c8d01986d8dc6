#include "src/serving/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/obs/correlation.h"
#include "src/obs/decision.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace serving {

namespace {

struct ServingMetrics {
  obs::Counter* requests;
  obs::Counter* records;
  obs::Counter* errors;
  obs::Histogram* latency;
  obs::Gauge* queue_depth;
  obs::Gauge* queue_high_watermark;
};

ServingMetrics& Metrics() {
  static ServingMetrics m = [] {
    auto& registry = obs::MetricsRegistry::Global();
    ServingMetrics out;
    out.requests = registry.GetCounter("serving.requests",
                                       "Prediction requests answered");
    out.records = registry.GetCounter("serving.records",
                                      "Rows scored by the serving tier");
    out.errors = registry.GetCounter(
        "serving.errors", "Prediction requests answered with an error");
    out.latency = registry.GetHistogram("serving.latency_seconds", {},
                                        "Per-request serving latency");
    out.queue_depth =
        registry.GetGauge("serving.queue_depth", "Pending serving requests");
    out.queue_high_watermark = registry.GetGauge(
        "serving.queue_high_watermark", "Peak pending serving requests");
    return out;
  }();
  return m;
}

}  // namespace

PredictionService::PredictionService(const SnapshotPublisher* publisher,
                                     Options options)
    : publisher_(publisher), options_(options) {
  options_.num_threads = std::max(1, options_.num_threads);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  Metrics();  // serving.* exist (at zero) from construction
}

PredictionService::~PredictionService() { Stop(); }

Status PredictionService::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("prediction service already running");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void PredictionService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
  // Workers drain the queue before exiting, so this only fires if Stop ran
  // before Start ever did (or a worker died) — never leave a promise
  // unfulfilled.
  std::deque<std::unique_ptr<Pending>> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
    Metrics().queue_depth->Set(0);
  }
  for (auto& pending : leftover) {
    pending->promise.set_value(
        Status::Unavailable("prediction service stopped"));
  }
}

Result<PredictionService::Response> PredictionService::Predict(
    const RawChunk& chunk) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::Unavailable("prediction service not running");
  }
  auto pending = std::make_unique<Pending>();
  pending->chunk = &chunk;
  pending->request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<Result<Response>> future = pending->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto slot_free = [this] {
      return stopping_ || queue_.size() < options_.queue_capacity;
    };
    if (options_.admission_timeout_seconds < 0.0) {
      not_full_.wait(lock, slot_free);
    } else if (!not_full_.wait_for(
                   lock,
                   std::chrono::duration<double>(
                       options_.admission_timeout_seconds),
                   slot_free)) {
      // Same shed vocabulary as the ingest queue: `serving.shed` counts
      // requests dropped instead of queued, journaled as a kShed event.
      lock.unlock();
      obs::Record(
          obs::Decision::kServingShed,
          obs::CorrelationId{options_.deployment_id, pending->request_id});
      return Status::Unavailable("prediction request shed: queue full");
    }
    if (stopping_) {
      return Status::Unavailable("prediction service stopping");
    }
    queue_.push_back(std::move(pending));
    queue_high_watermark_ = std::max(queue_high_watermark_, queue_.size());
    Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
    Metrics().queue_high_watermark->Set(
        static_cast<double>(queue_high_watermark_));
  }
  not_empty_.notify_one();
  return future.get();
}

Result<PredictionService::Response> PredictionService::PredictWith(
    SnapshotReader* reader, const RawChunk& chunk) const {
  return ServeOne(reader, chunk,
                  next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1);
}

Result<PredictionService::Response> PredictionService::PredictWith(
    SnapshotReader* reader, const RawChunk& chunk, const FeatureData& features,
    uint64_t pipeline_version) const {
  return ServeOne(reader, chunk,
                  next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1,
                  &features, pipeline_version);
}

void PredictionService::WorkerLoop() {
  obs::Heartbeat* heartbeat =
      obs::HealthRegistry::Global().GetHeartbeat("serving");
  SnapshotReader reader(publisher_);
  for (;;) {
    std::unique_ptr<Pending> request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      request = std::move(queue_.front());
      queue_.pop_front();
      Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
    }
    not_full_.notify_one();
    heartbeat->Beat();
    {
      // Busy-but-silent inside a wedged request is exactly the watchdog's
      // stall condition, so /readyz flips if the loop stops making
      // progress mid-request.
      obs::Heartbeat::WorkScope work(heartbeat);
      request->promise.set_value(
          ServeOne(&reader, *request->chunk, request->request_id));
    }
    heartbeat->Beat();
  }
}

Result<PredictionService::Response> PredictionService::ServeOne(
    SnapshotReader* reader, const RawChunk& chunk, int64_t request_id,
    const FeatureData* online, uint64_t online_version) const {
  obs::CorrelationScope corr(options_.deployment_id, request_id);
  ServingMetrics& metrics = Metrics();
  obs::Phase phase("serving.request", metrics.latency);
  Result<Response> result = [&]() -> Result<Response> {
    CDPIPE_FAULT_DELAY("serving.slow_request");
    CDPIPE_FAULT_POINT("serving.request");
    std::shared_ptr<const ModelSnapshot> snapshot = reader->Current();
    if (snapshot == nullptr) {
      return Status::Unavailable("serving: no snapshot published yet");
    }
    Response response;
    response.epoch = snapshot->epoch;
    response.request_id = request_id;
    if (online != nullptr && snapshot->pipeline_version == online_version) {
      // Frozen from the statistics that produced `online`: the snapshot's
      // transform of `chunk` would be `online`, bit for bit.
      snapshot->model->PredictBatch(*online, &response.scores);
      response.true_labels = online->labels;
    } else {
      CDPIPE_ASSIGN_OR_RETURN(FeatureData features,
                              snapshot->pipeline->Transform(chunk));
      snapshot->model->PredictBatch(features, &response.scores);
      response.true_labels = std::move(features.labels);
    }
    response.labels.reserve(response.scores.size());
    for (double score : response.scores) {
      response.labels.push_back(score >= 0.0 ? 1.0 : -1.0);
    }
    response.rows_dropped = chunk.num_rows() - response.scores.size();
    return response;
  }();
  const double latency = phase.Stop();
  metrics.requests->Increment();
  if (result.ok()) {
    result->latency_seconds = latency;
    metrics.records->Add(static_cast<int64_t>(result->scores.size()));
  } else {
    metrics.errors->Increment();
  }
  return result;
}

}  // namespace serving
}  // namespace cdpipe

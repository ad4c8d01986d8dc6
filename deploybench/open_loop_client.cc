#include "deploybench/open_loop_client.h"

#include <chrono>
#include <cfloat>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace deploybench {
namespace {

void Extend(std::vector<double>* out, const std::vector<double>& in) {
  out->insert(out->end(), in.begin(), in.end());
}

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

void ClientStats::Append(const ClientStats& other) {
  attempted += other.attempted;
  failed += other.failed;
  bad_responses += other.bad_responses;
  stale_reads += other.stale_reads;
  torn_reads += other.torn_reads;
  Extend(&latency_us, other.latency_us);
  Extend(&lag_us, other.lag_us);
  Extend(&age_us, other.age_us);
  Extend(&service_us, other.service_us);
  Extend(&queue_wait_us, other.queue_wait_us);
}

OpenLoopClient::OpenLoopClient(const serving::SnapshotPublisher* publisher,
                               serving::PredictionService* service,
                               const std::vector<RawChunk>* queries,
                               double requests_per_second)
    : publisher_(publisher),
      service_(service),
      queries_(queries),
      requests_per_second_(requests_per_second) {
  CDPIPE_CHECK(!queries_->empty());
  CDPIPE_CHECK(requests_per_second_ > 0.0);
}

OpenLoopClient::~OpenLoopClient() {
  if (thread_.joinable()) Stop();
}

void OpenLoopClient::Start() {
  CDPIPE_CHECK(!thread_.joinable());
  stop_.store(false, std::memory_order_release);
  stats_ = ClientStats{};
  thread_ = std::thread([this] { Loop(); });
}

ClientStats OpenLoopClient::Stop() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
  return std::move(stats_);
}

void OpenLoopClient::Loop() {
  using Clock = std::chrono::steady_clock;
  serving::SnapshotReader reader(publisher_);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / requests_per_second_));
  Clock::time_point due = Clock::now();
  for (size_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    if (std::shared_ptr<const serving::ModelSnapshot> snapshot =
            reader.Current()) {
      stats_.age_us.push_back(static_cast<double>(
          obs::Tracer::NowMicros() - snapshot->published_us));
    }
    const RawChunk& query = (*queries_)[i % queries_->size()];
    Result<serving::PredictionService::Response> response =
        service_->Predict(query);
    const Clock::time_point done = Clock::now();
    stats_.attempted += 1;
    stats_.lag_us.push_back(MicrosBetween(due, sent));
    if (!response.ok()) {
      stats_.failed += 1;
      stats_.latency_us.push_back(DBL_MAX);
    } else {
      const double latency = MicrosBetween(due, done);
      const double service = response->latency_seconds * 1e6;
      stats_.latency_us.push_back(latency);
      stats_.service_us.push_back(service);
      stats_.queue_wait_us.push_back(latency - service);
      if (response->scores.size() + response->rows_dropped !=
          query.num_rows()) {
        stats_.bad_responses += 1;
      }
    }
    due += interval;
  }
  stats_.stale_reads = reader.stale_reads();
  stats_.torn_reads = reader.torn_reads();
}

}  // namespace deploybench
}  // namespace cdpipe

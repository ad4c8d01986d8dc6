#include "src/engine/thread_pool.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace {

struct PoolMetrics {
  obs::Counter* tasks_executed;
  obs::Counter* task_exceptions;
  obs::Gauge* queue_depth;
  obs::Histogram* queue_wait_seconds;
  obs::Histogram* task_seconds;

  static const PoolMetrics& Get() {
    static const PoolMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      PoolMetrics m;
      m.tasks_executed = registry.GetCounter("thread_pool.tasks_executed");
      m.task_exceptions = registry.GetCounter("thread_pool.task_exceptions");
      m.queue_depth = registry.GetGauge("thread_pool.queue_depth");
      m.queue_wait_seconds =
          registry.GetHistogram("thread_pool.queue_wait_seconds");
      m.task_seconds = registry.GetHistogram("thread_pool.task_seconds");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  CDPIPE_CHECK_GT(num_threads, 0u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    CDPIPE_CHECK(!shutting_down_);
    queue_.push_back({std::move(task), obs::Tracer::NowMicros()});
    ++in_flight_;
    PoolMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  const PoolMetrics& metrics = PoolMetrics::Get();
  while (true) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth->Set(static_cast<double>(queue_.size()));
    }
    metrics.queue_wait_seconds->Observe(
        static_cast<double>(obs::Tracer::NowMicros() - task.enqueue_us) *
        1e-6);
    {
      obs::Phase phase("thread_pool.task", metrics.task_seconds);
      // Last-resort guard: a task that lets an exception escape must not
      // take down the worker thread (and with it the process).  Callers
      // that need the failure reported convert exceptions to Status
      // themselves (ExecutionEngine does); anything reaching this point is
      // logged and counted.
      try {
        task.fn();
      } catch (const std::exception& e) {
        metrics.task_exceptions->Increment();
        CDPIPE_LOG(Error) << "thread-pool task threw: " << e.what();
      } catch (...) {
        metrics.task_exceptions->Increment();
        CDPIPE_LOG(Error) << "thread-pool task threw a non-std exception";
      }
    }
    metrics.tasks_executed->Increment();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace cdpipe

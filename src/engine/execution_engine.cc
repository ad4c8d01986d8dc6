#include "src/engine/execution_engine.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <utility>

#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {

obs::Heartbeat* EngineHeartbeat() {
  static obs::Heartbeat* heartbeat =
      obs::HealthRegistry::Global().GetHeartbeat("engine");
  return heartbeat;
}

}  // namespace

ExecutionEngine::ExecutionEngine(size_t num_threads) {
  if (num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads);
  }
}

void ExecutionEngine::SubmitAsync(std::function<void()> task) {
  if (async_ == nullptr) async_ = std::make_unique<ThreadPool>(1);
  async_->Submit(std::move(task));
}

void ExecutionEngine::DrainAsync() {
  if (async_ != nullptr) async_->Wait();
}

size_t ExecutionEngine::num_threads() const {
  return pool_ != nullptr ? pool_->num_threads() : 1;
}

Status ExecutionEngine::RunTask(const std::function<Status(size_t)>& task,
                                size_t index) {
  return RetryWithBackoff(retry_policy_, "engine.task", [&]() -> Status {
    // The work scope sits inside the retry so an injected slow task shows
    // up as a busy-but-silent heartbeat — exactly what the watchdog's stall
    // detector is looking for.
    obs::Heartbeat::WorkScope work(EngineHeartbeat());
    try {
      CDPIPE_FAULT_POINT("engine.task");
      CDPIPE_FAULT_DELAY("engine.slow_task");
      return task(index);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("task threw: ") + e.what());
    } catch (...) {
      return Status::Internal("task threw a non-std exception");
    }
  });
}

Status ExecutionEngine::ParallelFor(
    size_t count, const std::function<Status(size_t)>& task) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      CDPIPE_RETURN_NOT_OK(RunTask(task, i));
    }
    return Status::OK();
  }
  std::mutex mutex;
  Status first_error = Status::OK();
  size_t first_error_index = SIZE_MAX;
  for (size_t i = 0; i < count; ++i) {
    pool_->Submit([&, i] {
      Status st = RunTask(task, i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::move(st);
        }
      }
    });
  }
  pool_->Wait();
  return first_error;
}

Status ExecutionEngine::ParallelForRange(
    size_t count, const std::function<Status(size_t, size_t)>& task) {
  if (count == 0) return Status::OK();
  const size_t grain = std::max<size_t>(1, count / (num_threads() * 4));
  static obs::Gauge* grain_gauge =
      obs::MetricsRegistry::Global().GetGauge("engine.parallel_range_grain");
  grain_gauge->Set(static_cast<double>(grain));

  // Ranges are not retried (see set_retry_policy): the lambda only guards
  // against injected faults and escaping exceptions.
  const auto run_range = [&task](size_t begin, size_t end) -> Status {
    try {
      CDPIPE_FAULT_POINT("engine.range_task");
      return task(begin, end);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("range task threw: ") + e.what());
    } catch (...) {
      return Status::Internal("range task threw a non-std exception");
    }
  };

  if (pool_ == nullptr) {
    for (size_t begin = 0; begin < count; begin += grain) {
      CDPIPE_RETURN_NOT_OK(
          run_range(begin, std::min(begin + grain, count)));
    }
    return Status::OK();
  }
  std::mutex mutex;
  Status first_error = Status::OK();
  size_t first_error_begin = SIZE_MAX;
  for (size_t begin = 0; begin < count; begin += grain) {
    const size_t end = std::min(begin + grain, count);
    pool_->Submit([&, begin, end] {
      Status st = run_range(begin, end);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        if (begin < first_error_begin) {
          first_error_begin = begin;
          first_error = std::move(st);
        }
      }
    });
  }
  pool_->Wait();
  return first_error;
}

}  // namespace cdpipe

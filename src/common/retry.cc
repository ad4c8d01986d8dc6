#include "src/common/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/obs/decision.h"

namespace cdpipe {

bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIoError;
}

Status RetryWithBackoff(const RetryPolicy& policy, const char* op_name,
                        const std::function<Status()>& op) {
  const int max_attempts = std::max(1, policy.max_attempts);
  double backoff = policy.initial_backoff_seconds;
  Status status;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    status = op();
    if (status.ok() || !IsRetryable(status)) return status;
    if (attempt == max_attempts) break;
    obs::Record(obs::Decision::kRetry, op_name, status);
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(backoff, policy.max_backoff_seconds)));
      // Clamp the growth at the sleep cap: with large attempt counts an
      // unbounded multiply overflows to inf (and the next std::min would
      // still save the sleep, but the policy state itself goes non-finite).
      backoff = std::min(backoff * policy.backoff_multiplier,
                         policy.max_backoff_seconds);
    }
  }
  obs::Record(obs::Decision::kRetryExhausted, op_name, status);
  return status;
}

}  // namespace cdpipe

#ifndef CDPIPE_COMMON_RETRY_H_
#define CDPIPE_COMMON_RETRY_H_

#include <functional>

#include "src/common/status.h"

namespace cdpipe {

/// Bounded-retry policy with exponential backoff for transient failures
/// (flaky executors, storage hiccups, injected faults).  Backoff is
/// deterministic — no jitter — so runs under fault injection remain
/// reproducible given the fault script.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retries).
  int max_attempts = 3;
  /// Sleep before the first retry; 0 disables sleeping entirely (the
  /// default keeps tests fast — retries in-process rarely need to wait).
  double initial_backoff_seconds = 0.0;
  /// Backoff growth per retry.
  double backoff_multiplier = 2.0;
  /// Upper bound on a single backoff sleep.
  double max_backoff_seconds = 1.0;

  /// A policy that runs the operation exactly once.
  static RetryPolicy None() {
    RetryPolicy policy;
    policy.max_attempts = 1;
    return policy;
  }
};

/// Whether a failure is worth retrying: transient codes only.  Logic errors
/// (InvalidArgument, NotFound, FailedPrecondition, ...) fail fast.
bool IsRetryable(const Status& status);

/// Runs `op`; on a retryable failure sleeps the (bounded, exponential)
/// backoff and re-runs it, up to `policy.max_attempts` total attempts.
/// Non-retryable errors return immediately without consuming attempts.
///
/// `op` must be idempotent-on-failure: a failed attempt must leave no
/// partial state behind (the call sites in this codebase either write into
/// a slot that is wholly overwritten on success, or fail before mutating).
///
/// Each re-execution is a `retry` decision (`retry.attempts`, a warning);
/// an operation that still fails after the final attempt is a
/// `retry_exhausted` one (`retry.exhausted`, an error).  `op_name` is their
/// journal detail.
Status RetryWithBackoff(const RetryPolicy& policy, const char* op_name,
                        const std::function<Status()>& op);

}  // namespace cdpipe

#endif  // CDPIPE_COMMON_RETRY_H_

#ifndef CDPIPE_ENGINE_EXECUTION_ENGINE_H_
#define CDPIPE_ENGINE_EXECUTION_ENGINE_H_

#include <functional>
#include <memory>

#include "src/common/retry.h"
#include "src/common/status.h"
#include "src/engine/thread_pool.h"

namespace cdpipe {

/// The paper runs on Apache Spark, which supplies both batch execution
/// (proactive training / retraining over sampled chunks) and streaming
/// execution (per-chunk online processing).  This engine is the from-scratch
/// stand-in: per-chunk work runs inline on the caller's thread (the
/// "streaming" path), and batch fan-out runs on an optional thread pool.
///
/// With `num_threads == 1` everything runs inline on the caller, which keeps
/// experiments bit-for-bit deterministic; >1 parallelizes embarrassingly
/// parallel per-chunk work such as re-materialization.
class ExecutionEngine {
 public:
  explicit ExecutionEngine(size_t num_threads = 1);

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  size_t num_threads() const;

  /// Retry policy applied to every ParallelFor task: a task failing with a
  /// transient status (kUnavailable, kIoError) is re-run in place, with
  /// backoff, before the failure is reported.  ParallelFor tasks must
  /// therefore be idempotent-on-failure (all call sites write into a
  /// per-index slot that is wholly overwritten on success).  Defaults to
  /// RetryPolicy::None().  ParallelForRange tasks are NOT retried — range
  /// callers (sharded gradient accumulation) mutate shared accumulators and
  /// are not failure-idempotent; their callers retry at a higher level.
  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Runs `task(i)` for i in [0, count).  Tasks must be independent; any
  /// returned error aborts with the first (lowest-index) failure.  Order of
  /// side effects across tasks is unspecified when parallel.  A task that
  /// throws is converted to a kInternal status instead of terminating the
  /// process.  Fault sites: "engine.task" (error before the task body),
  /// "engine.slow_task" (injected delay).
  Status ParallelFor(size_t count, const std::function<Status(size_t)>& task);

  /// Blocked-range variant: runs `task(begin, end)` over contiguous blocks
  /// covering [0, count), each of max(1, count / (4 * num_threads()))
  /// indices (the last may be shorter) — about four blocks per worker.  One
  /// heap-allocated std::function is submitted per *block*, not per
  /// element, which amortizes the enqueue cost when elements are cheap
  /// (per-shard gradient accumulation).  Blocks must be independent; any
  /// returned error aborts with the failure of the lowest `begin`.
  /// Single-threaded engines run the blocks inline, in order, stopping at
  /// the first error.
  Status ParallelForRange(size_t count,
                          const std::function<Status(size_t, size_t)>& task);

  /// Enqueues `task` on the engine's *async lane*: a one-thread ThreadPool
  /// (one FIFO worker), lazily created on first use and separate from the
  /// ParallelFor pool — background IO (spill prefetch) never competes with
  /// training fan-out or perturbs the "engine.task" fault accounting.  Tasks
  /// run in submission order; an escaping exception is contained and
  /// counted by the pool (`thread_pool.task_exceptions`), never propagated.
  /// Available on single-threaded engines too: async overlap does not
  /// change what any task computes, so determinism is preserved.  The
  /// engine's destructor runs every queued task before it returns.
  void SubmitAsync(std::function<void()> task);

  /// Blocks until every async task submitted so far has finished.  Safe to
  /// call when the lane was never used.
  void DrainAsync();

 private:
  /// One ParallelFor task attempt-with-retries: fault points, exception
  /// conversion, transient-retry loop.
  Status RunTask(const std::function<Status(size_t)>& task, size_t index);

  std::unique_ptr<ThreadPool> pool_;  // null when single-threaded
  RetryPolicy retry_policy_ = RetryPolicy::None();
  std::unique_ptr<ThreadPool> async_;  // null until first SubmitAsync
};

}  // namespace cdpipe

#endif  // CDPIPE_ENGINE_EXECUTION_ENGINE_H_

#ifndef CDPIPE_OBS_CORRELATION_H_
#define CDPIPE_OBS_CORRELATION_H_

#include <cstdint>

namespace cdpipe {
namespace obs {

/// Identifies which deployment and which entity (chunk or training step) a
/// piece of telemetry belongs to.  Every journal event carries one, and
/// spans recorded while a CorrelationScope is active inherit it — which is
/// what lets an operator reconstruct a chunk's full lifecycle
/// (ingest → materialize → sample → train) across threads and subsystems.
struct CorrelationId {
  /// Process-unique deployment instance id (0 = not attributed to any
  /// deployment; ids are assigned from 1 by the Deployment constructor).
  uint32_t deployment = 0;
  /// Chunk id or training-step sequence number; -1 = none.
  int64_t entity = -1;

  bool operator==(const CorrelationId& other) const {
    return deployment == other.deployment && entity == other.entity;
  }
  bool operator!=(const CorrelationId& other) const {
    return !(*this == other);
  }

  bool empty() const { return deployment == 0 && entity < 0; }
};

/// RAII thread-local correlation scope.  Code that knows which deployment /
/// chunk it is working on pushes a scope; everything downstream on the same
/// thread (journal events, trace spans) picks it up without having the id
/// threaded through every signature.  Scopes nest and restore the previous
/// value on destruction.
///
/// The scope is per-thread: engine workers executing a task on behalf of a
/// scoped caller do not inherit it automatically — call sites that fan out
/// re-establish the scope inside the task when the correlation matters
/// (re-materialization does).
class CorrelationScope {
 public:
  explicit CorrelationScope(CorrelationId id);
  CorrelationScope(uint32_t deployment, int64_t entity)
      : CorrelationScope(CorrelationId{deployment, entity}) {}
  ~CorrelationScope();

  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

  /// The innermost active scope on this thread ({0, -1} when none).
  static CorrelationId Current();

  /// Current deployment with a different entity — the common pattern for
  /// sites that know a chunk id but not which deployment they serve.
  static CorrelationId WithEntity(int64_t entity);

 private:
  CorrelationId previous_;
};

}  // namespace obs
}  // namespace cdpipe

#endif  // CDPIPE_OBS_CORRELATION_H_

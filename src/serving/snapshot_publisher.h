#ifndef CDPIPE_SERVING_SNAPSHOT_PUBLISHER_H_
#define CDPIPE_SERVING_SNAPSHOT_PUBLISHER_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "src/serving/model_snapshot.h"

namespace cdpipe {
namespace serving {

/// RCU-style single-writer snapshot exchange between the deployment loop
/// (the trainer) and the prediction front-end (the readers).
///
/// Write side (one thread at a time — the deployment loop): `PublishFrom`
/// deep-freezes the live pipeline + model into a new `ModelSnapshot` epoch
/// and swaps it in.  Publishing never waits for readers: the old epoch
/// stays alive for as long as any reader still holds a reference to it
/// (shared_ptr reclamation *is* the grace period) and is retired — its swap
/// journaled — the moment the last reference drops.
///
/// Read side: the hot path is `SnapshotReader::Current()` on a per-thread
/// reader handle — ONE relaxed-cost atomic load of the epoch counter.  Only
/// when the epoch actually advanced does the reader take the brief refresh
/// lock to re-reference the new snapshot; steady-state requests between
/// publishes touch no lock at all, so model refresh can never stall the
/// request path and readers never stall each other.
///
/// Epoch monotonicity is a hard invariant: `Acquire` can never return an
/// older epoch than any previously returned one (the swap happens before
/// the epoch counter advances, both under the same writer).  Readers verify
/// it anyway and count violations in `serving.stale_reads` — a metric that
/// is exactly zero unless the swap protocol is broken.
class SnapshotPublisher {
 public:
  SnapshotPublisher();

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Builds and publishes a new epoch from the live deployed state.  The
  /// pipeline is Clone()d (deep-frozen) unless its statistics version
  /// matches the previous epoch's, in which case the previous epoch's
  /// (already frozen) pipeline is shared and only the model is copied —
  /// the cheap path for model-only refreshes after proactive steps.
  /// Returns the new epoch number.
  uint64_t PublishFrom(const Pipeline& pipeline, const LinearModel& model);

  /// Publishes a fully built snapshot (tests, restore paths that already
  /// hold frozen copies).  `snapshot->epoch`/`epoch_check`/`published_us`
  /// are assigned by the publisher.  Returns the new epoch number.
  uint64_t Publish(std::shared_ptr<ModelSnapshot> snapshot);

  /// Current snapshot, or nullptr before the first publish.  Slow path
  /// (takes the refresh lock); request loops go through SnapshotReader.
  std::shared_ptr<const ModelSnapshot> Acquire() const;

  /// Latest published epoch (0 before the first publish).  Epochs are dense
  /// from 1, so this also counts the publishes.  Lock-free.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mu_;  ///< guards current_ (swap and slow-path copy)
  std::shared_ptr<const ModelSnapshot> current_;
  std::atomic<uint64_t> epoch_{0};
};

/// Per-thread read handle: caches the last acquired snapshot and
/// re-references only on an epoch change.  NOT thread-safe — each reader
/// thread owns one.  Holding the handle keeps its cached epoch alive, so a
/// request that started on epoch N completes on epoch N even if N+1 is
/// published mid-request (bounded staleness: at most the in-flight
/// request).
class SnapshotReader {
 public:
  explicit SnapshotReader(const SnapshotPublisher* publisher)
      : publisher_(publisher) {}

  /// The freshest published snapshot: one atomic epoch load on the fast
  /// path, a locked re-reference only when the epoch advanced.  Returns
  /// nullptr before the first publish.
  std::shared_ptr<const ModelSnapshot> Current();

  /// Epoch of the cached snapshot (0 = none).
  uint64_t cached_epoch() const { return cached_epoch_; }

  /// Epoch regressions this reader observed (must stay 0; also counted in
  /// the process-wide `serving.stale_reads`).
  uint64_t stale_reads() const { return stale_reads_; }
  /// Inconsistent snapshots this reader observed (must stay 0; also
  /// counted in `serving.torn_reads`).
  uint64_t torn_reads() const { return torn_reads_; }

 private:
  const SnapshotPublisher* publisher_;
  std::shared_ptr<const ModelSnapshot> cached_;
  uint64_t cached_epoch_ = 0;
  uint64_t stale_reads_ = 0;
  uint64_t torn_reads_ = 0;
};

}  // namespace serving
}  // namespace cdpipe

#endif  // CDPIPE_SERVING_SNAPSHOT_PUBLISHER_H_

#ifndef CDPIPE_STORAGE_CHUNK_STORE_H_
#define CDPIPE_STORAGE_CHUNK_STORE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"

namespace cdpipe {

class CostModel;
class ExecutionEngine;

/// The platform's storage unit (paper §3.2, §4.2): an append-only log of
/// raw data chunks plus a bounded, append-only cache of materialized
/// feature chunks.  Both are ordered maps keyed by chunk id, so "oldest"
/// is always the smallest key.
///
/// Invariants:
///  - Raw chunks are always retained (up to the optional bound N; when N is
///    exceeded the oldest raw chunk — and its feature chunk — disappear
///    entirely and are no longer sampleable).
///  - At most `max_materialized_chunks` (m) feature chunks are materialized;
///    inserting beyond m evicts the *oldest* materialized feature chunk,
///    keeping only its identifier and the reference to the raw chunk
///    (§3.2: "similar to cache eviction").  Features are stored once per
///    chunk, in id order: a re-materialized chunk feeds one proactive step
///    and is not cached again (§3.2).
///  - A feature chunk's `origin_id` always refers to a live raw chunk.
///
/// ## Two-tier raw storage
///
/// With `memory_budget_bytes` and `spill_dir` set, the raw log becomes two
/// tiers: while `RawBytes()` exceeds the budget, the *coldest* in-memory
/// raw chunks are encoded (storage/spill_file.h) and moved to per-chunk
/// files on disk.  Spilled chunks stay fully live — sampleable, listed by
/// `LiveIds()`, valid feature origins — the tier only changes where their
/// bytes sit.  `GetRaw` answers from memory only; `FetchRaw` additionally
/// loads from disk, preferring loads that `Prefetch` staged.
/// Because the in-memory set is always the newest suffix of the log, tier
/// residency is a deterministic function of the insertion sequence, which
/// is what makes the per-tier μ analysis in tests closed-form.
///
/// A spill-write failure degrades to keep-in-memory (the budget is
/// temporarily exceeded, counted in `spill_failures`).  A corrupt spill
/// file — checksum mismatch on load — is counted in
/// `spill_corrupt_detected` and answered by dropping the chunk entirely
/// (`spilled_chunks_dropped`): recompute-from-nothing, exactly as if the
/// retention bound had dropped it.
///
/// Threading: one thread owns the store and makes every call.  A staged
/// load runs on an engine's async lane but touches only its spill file, the
/// cost model it charges and the shared corruption count; the owner
/// collects its outcome through a future.
///
/// The store also keeps the hit/miss counters from which the empirical
/// materialization utilization rate μ (§3.2.2) is computed, split by the
/// tier the sampled chunk's raw bytes occupy.
class ChunkStore {
 public:
  struct Options {
    /// Maximum number of raw chunks retained (0 = unbounded).  Corresponds
    /// to N in the paper's analysis.
    size_t max_raw_chunks = 0;
    /// Maximum number of materialized feature chunks (m).  0 disables
    /// materialization entirely (materialization rate 0.0).
    size_t max_materialized_chunks = SIZE_MAX;
    /// In-memory budget for the raw tier in bytes (0 = never spill).
    /// Spilling requires `spill_dir` to be set as well.
    size_t memory_budget_bytes = 0;
    /// Directory for per-chunk spill files.  Must exist and be writable;
    /// the store deletes its own files on drop and on destruction.
    std::string spill_dir;
  };

  struct Counters {
    int64_t raw_inserted = 0;
    int64_t raw_dropped = 0;
    int64_t features_inserted = 0;
    int64_t evictions = 0;
    /// Sampled chunks found materialized, split by where the chunk's raw
    /// bytes live: `memory_hits` for memory-tier chunks, `disk_hits` for
    /// spilled ones.  Their sum is the old `sample_hits`.
    int64_t memory_hits = 0;
    int64_t disk_hits = 0;
    /// Sampled chunks that had to be re-materialized.
    int64_t sample_misses = 0;

    // --- Disk-tier accounting. ---
    int64_t chunks_spilled = 0;   ///< spill files written
    int64_t spill_failures = 0;   ///< spill writes that degraded to memory
    int64_t disk_loads = 0;       ///< synchronous loads from disk
    int64_t prefetch_hits = 0;    ///< loads collected from Prefetch
    int64_t spill_corrupt_detected = 0;  ///< checksum/decode failures seen
    int64_t spilled_chunks_dropped = 0;  ///< chunks dropped as corrupt
    int64_t spill_bytes_written = 0;     ///< encoded bytes on disk
    int64_t spill_raw_bytes = 0;         ///< in-memory bytes they replaced

    /// Either-tier hits — the quantity μ is defined over.
    int64_t SampleHits() const { return memory_hits + disk_hits; }

    double EmpiricalMu() const {
      const int64_t total = SampleHits() + sample_misses;
      return total > 0 ? static_cast<double>(SampleHits()) /
                             static_cast<double>(total)
                       : 0.0;
    }
    /// Per-tier μ; MemoryMu() + DiskMu() == EmpiricalMu().
    double MemoryMu() const {
      const int64_t total = SampleHits() + sample_misses;
      return total > 0 ? static_cast<double>(memory_hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
    double DiskMu() const {
      const int64_t total = SampleHits() + sample_misses;
      return total > 0 ? static_cast<double>(disk_hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
    /// Fraction of disk-tier loads that Prefetch had already staged.
    double PrefetchHitRate() const {
      const int64_t total = prefetch_hits + disk_loads;
      return total > 0 ? static_cast<double>(prefetch_hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
    /// Encoded-to-raw byte ratio of everything spilled (< 1 = compression).
    double SpillCompressionRatio() const {
      return spill_raw_bytes > 0 ? static_cast<double>(spill_bytes_written) /
                                       static_cast<double>(spill_raw_bytes)
                                 : 0.0;
    }
  };

  ChunkStore() : ChunkStore(Options()) {}
  explicit ChunkStore(Options options);
  /// Deletes this store's spill files.  Loads still queued on an async lane
  /// may outlive the store: they hold no pointer to it, and a load whose
  /// file is gone fails without effect.
  ~ChunkStore();

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Appends a raw chunk.  Ids must be strictly increasing (they are
  /// creation timestamps).  May drop the oldest raw chunk when bounded and
  /// spill cold chunks when over the memory budget.  Invalidates pointers
  /// returned by earlier FetchRaw calls for *spilled* chunks (the pinned
  /// staging area is recycled here); GetRaw pointers stay valid.
  Status PutRaw(RawChunk chunk);

  /// Stores the materialized features for an existing raw chunk; evicts the
  /// oldest materialized feature chunk when over capacity.  Ids must be
  /// greater than every stored feature chunk's (InvalidArgument otherwise,
  /// as in PutRaw): the cache is append-only.
  Status PutFeatures(FeatureChunk chunk);

  size_t num_raw() const { return memory_.size() + disk_.size(); }
  size_t num_materialized() const { return features_.size(); }
  size_t num_spilled() const { return disk_.size(); }

  /// Ids of all live raw chunks, oldest first: the disk tier, then the
  /// memory tier (always the newest suffix of the log).
  std::vector<ChunkId> LiveIds() const;
  /// What LiveIds() will return once `count` more chunks with consecutive
  /// ids from `first_id` are put: today's ids plus theirs, less the oldest
  /// ones the retention bound N will have dropped.
  std::vector<ChunkId> LiveIdsAfterPuts(ChunkId first_id, size_t count) const;

  bool Contains(ChunkId id) const {
    return memory_.count(id) > 0 || disk_.count(id) > 0;
  }
  bool IsMaterialized(ChunkId id) const { return features_.count(id) > 0; }
  bool IsSpilled(ChunkId id) const { return disk_.count(id) > 0; }

  /// Null when the id is not resident in the memory tier (spilled, dropped,
  /// or never inserted).  Never touches disk.
  const RawChunk* GetRaw(ChunkId id) const;
  /// Like GetRaw, but loads spilled chunks from disk: collects a staged
  /// load (waiting while it is in flight), or reads synchronously when
  /// nothing was staged or the staged read failed without corruption.
  /// The returned pointer stays valid until the next PutRaw.  Null when the
  /// id is dead, when the spill file is corrupt (the chunk is then dropped
  /// and counted), or when the read failed (the chunk stays live for a
  /// later retry).
  const RawChunk* FetchRaw(ChunkId id);
  /// Null when not materialized.
  const FeatureChunk* GetFeatures(ChunkId id) const;

  /// Evicts the materialized feature chunk for `id` (no-op when it is not
  /// materialized); the raw chunk stays live, so the id remains sampleable
  /// and re-materializable.  Returns whether anything was evicted.  Used by
  /// memory-pressure handling and by the evict-heavy fault scenario.
  bool Evict(ChunkId id);

  /// Records the outcome of one sampling operation for the μ accounting.
  void RecordSampleAccess(ChunkId id);

  /// Snapshot of the counters (by value: the corruption count is shared
  /// with the staged loads).
  Counters counters() const;
  void ResetCounters();

  /// Bytes of raw chunks resident in the *memory* tier / materialized
  /// feature chunks / encoded spill files on disk.
  size_t RawBytes() const { return raw_bytes_; }
  size_t MaterializedBytes() const { return feature_bytes_; }
  size_t DiskBytes() const { return disk_bytes_; }

  bool spilling_enabled() const {
    return options_.memory_budget_bytes > 0 && !options_.spill_dir.empty();
  }

  /// Charges spill/disk-load wall time to `model` (unset = untimed).  Staged
  /// loads charge it from the async lane, so it must outlive them.
  void set_cost_model(CostModel* model) { cost_ = model; }

  /// Stages the spilled chunks among `ids`: submits one load per spilled id
  /// that is not already staged to `engine`'s async lane, so that the disk
  /// read overlaps the owner's work and FetchRaw finds the bytes ready.
  /// First drops the finished loads of an earlier call that `ids` no longer
  /// lists (the lookahead window moved on); loads still in flight stay.
  /// Memory-resident and dead ids are ignored.  Returns the number of loads
  /// submitted.  Staging never changes what FetchRaw returns, only when the
  /// disk is read.
  size_t Prefetch(const std::vector<ChunkId>& ids, ExecutionEngine* engine);

 private:
  /// Where a spilled chunk's bytes went and what they cost in memory.
  struct SpillEntry {
    std::string path;
    int64_t file_bytes = 0;
    size_t raw_bytes = 0;
  };

  void EvictOldestMaterialized();
  void DropOldestRaw();
  /// Removes `it`'s feature chunk and its bytes.
  void EraseFeatures(std::map<ChunkId, FeatureChunk>::iterator it);
  /// Spills memory-tier chunks, coldest first, until the budget holds (or
  /// only the newest chunk is left).  A failed write stops the pass.
  void MaybeSpillOverBudget();
  /// Writes `id`'s chunk to disk and moves it to the spill tier.  Returns
  /// false on write failure (the chunk stays in memory).
  bool SpillChunk(ChunkId id);
  /// Removes a corrupt spilled chunk entirely: file, log entry, features.
  /// `cause` is the decode failure the drop is logged with.
  void DropSpilledChunk(ChunkId id, const Status& cause);
  /// Mirrors residency (counts/bytes) into the global metrics gauges.
  void UpdateResidencyGauges() const;

  Options options_;
  Counters counters_;
  /// Keyed by chunk id (== creation timestamp), so begin() is the oldest.
  /// Every disk-tier id is smaller than every memory-tier id.
  std::map<ChunkId, SpillEntry> disk_;
  std::map<ChunkId, RawChunk> memory_;
  std::map<ChunkId, FeatureChunk> features_;
  size_t raw_bytes_ = 0;
  size_t feature_bytes_ = 0;
  size_t disk_bytes_ = 0;
  CostModel* cost_ = nullptr;

  /// Disk loads pinned for the caller; recycled at the next PutRaw.
  std::vector<std::unique_ptr<RawChunk>> pinned_;

  /// Loads submitted by Prefetch and not yet collected by FetchRaw.
  std::map<ChunkId, std::future<Result<RawChunk>>> staged_;
  /// Corrupt files detected by synchronous and staged loads alike; shared
  /// with the queued loads so that they never point into the store.
  std::shared_ptr<std::atomic<int64_t>> corrupt_detected_ =
      std::make_shared<std::atomic<int64_t>>(0);
};

}  // namespace cdpipe

#endif  // CDPIPE_STORAGE_CHUNK_STORE_H_

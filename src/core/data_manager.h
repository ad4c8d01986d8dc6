#ifndef CDPIPE_CORE_DATA_MANAGER_H_
#define CDPIPE_CORE_DATA_MANAGER_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/sampling/sampler.h"
#include "src/storage/chunk_store.h"

namespace cdpipe {

class ExecutionEngine;

/// The platform's data manager (paper §4.2): discretizes incoming training
/// data into timestamped chunks, stores raw and feature chunks, and serves
/// samples for proactive training, distinguishing chunks that are
/// materialized from those that must be re-materialized.
class DataManager {
 public:
  /// The result of one sampling operation: which sampled chunks can be used
  /// directly and which must be re-materialized from their raw chunks.
  struct SampleSet {
    std::vector<const FeatureChunk*> materialized;
    std::vector<const RawChunk*> to_rematerialize;

    size_t num_chunks() const {
      return materialized.size() + to_rematerialize.size();
    }
  };

  DataManager(ChunkStore::Options store_options,
              std::unique_ptr<Sampler> sampler);

  /// Discretization (workflow step 1): appends a discretized chunk to the
  /// raw log; its id must exceed all ids ingested so far.
  Status IngestChunk(RawChunk chunk);

  /// Stores a transformed feature chunk (workflow step 2).
  Status StoreFeatures(FeatureChunk chunk);

  /// Workflow steps 3-4: draws `sample_size` chunks with the configured
  /// strategy and resolves them (`Resolve`).  Fails only on an empty store.
  Result<SampleSet> SampleForTraining(size_t sample_size, Rng* rng);

  /// Workflow step 4 for every training step — a proactive sample, a drift
  /// burst's window, a retrain's whole history: splits `picked` by
  /// materialization status.  Each pick is one sample access for the μ
  /// accounting and journals a materialize_hit or materialize_miss, and the
  /// call journals one sample event.  A pick whose raw bytes are gone (the
  /// disk tier degraded) is dropped with a `sample_chunk_unavailable`
  /// degrade.  Pointers remain valid until the next mutation of the store.
  SampleSet Resolve(const std::vector<ChunkId>& picked);

  const ChunkStore& store() const { return store_; }
  ChunkStore& mutable_store() { return store_; }

  /// Stages spilled chunks on `engine`'s async lane from now on (see
  /// PrefetchForNextSample).  Only meaningful when the store's disk tier is
  /// configured; `engine` must stay alive while prefetching is enabled.
  void EnablePrefetch(ExecutionEngine* engine);
  /// Makes PrefetchForNextSample a no-op again.  Loads already queued run
  /// to completion on the lane; they hold no pointer into this manager.
  void DisablePrefetch();

  /// Predicts the chunk ids the *next* SampleForTraining call will draw —
  /// the sampler is deterministic and `*rng` is cloned, not consumed — and
  /// stages the spilled ones in the background (ChunkStore::Prefetch).
  /// `chunks_ahead` is how many not-yet-ingested chunks will arrive before
  /// that sample (their ids are the next consecutive timestamps).  No-op
  /// unless prefetching is enabled and the disk tier configured.  Purely an
  /// overlap optimization: results are bit-identical with or without it.
  void PrefetchForNextSample(size_t sample_size, size_t chunks_ahead,
                             const Rng& rng);

  ChunkId next_id() const { return next_id_; }

 private:
  ChunkStore store_;
  std::unique_ptr<Sampler> sampler_;
  ChunkId next_id_ = 0;
  ExecutionEngine* prefetch_engine_ = nullptr;  ///< null: no prefetching
};

}  // namespace cdpipe

#endif  // CDPIPE_CORE_DATA_MANAGER_H_

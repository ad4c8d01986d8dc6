#include "src/core/data_manager.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/correlation.h"
#include "src/obs/decision.h"
#include "src/obs/health.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {

obs::Heartbeat* IngestHeartbeat() {
  static obs::Heartbeat* heartbeat =
      obs::HealthRegistry::Global().GetHeartbeat("ingest");
  return heartbeat;
}

}  // namespace

DataManager::DataManager(ChunkStore::Options store_options,
                         std::unique_ptr<Sampler> sampler)
    : store_(store_options), sampler_(std::move(sampler)) {
  CDPIPE_CHECK(sampler_ != nullptr);
}

Status DataManager::IngestChunk(RawChunk chunk) {
  if (chunk.id < next_id_) {
    return Status::InvalidArgument(
        "chunk id " + std::to_string(chunk.id) +
        " is not beyond the last assigned id " + std::to_string(next_id_ - 1));
  }
  // Advance next_id_ only after the store accepted the chunk: a failed
  // (e.g. transiently faulted) PutRaw must leave the manager unchanged so
  // the same chunk can be retried.
  const ChunkId id = chunk.id;
  obs::Heartbeat::WorkScope work(IngestHeartbeat());
  CDPIPE_RETURN_NOT_OK(store_.PutRaw(std::move(chunk)));
  next_id_ = id + 1;
  return Status::OK();
}

Status DataManager::StoreFeatures(FeatureChunk chunk) {
  return store_.PutFeatures(std::move(chunk));
}

Result<DataManager::SampleSet> DataManager::SampleForTraining(
    size_t sample_size, Rng* rng) {
  CDPIPE_CHECK(rng != nullptr);
  if (store_.num_raw() == 0) {
    return Status::FailedPrecondition("no chunks available to sample");
  }
  return Resolve(sampler_->Sample(store_.LiveIds(), sample_size, rng));
}

DataManager::SampleSet DataManager::Resolve(
    const std::vector<ChunkId>& picked) {
  SampleSet out;
  out.materialized.reserve(picked.size());
  for (ChunkId id : picked) {
    // Evict-heavy fault scenario: memory pressure evicts the sampled
    // chunk's features right before the access, forcing the
    // re-materialization path.  The μ accounting below then records an
    // honest miss.
    if (CDPIPE_FAULT_TRIGGERED("chunk_store.forced_eviction")) {
      store_.Evict(id);
    }
    store_.RecordSampleAccess(id);
    if (const FeatureChunk* features = store_.GetFeatures(id)) {
      out.materialized.push_back(features);
      obs::Record(obs::Decision::kMaterializeHit,
                  obs::CorrelationScope::WithEntity(id));
    } else {
      const RawChunk* raw = store_.FetchRaw(id);
      if (raw == nullptr) {
        CDPIPE_CHECK(store_.spilling_enabled())
            << "picked chunk " << id << " has no raw bytes";
        // Disk tier degraded under us (corrupt file dropped, read failure):
        // train on one chunk fewer rather than fail the sample.
        obs::Record(obs::Decision::kSampleChunkUnavailable,
                    obs::CorrelationScope::WithEntity(id));
        continue;
      }
      out.to_rematerialize.push_back(raw);
      obs::Record(obs::Decision::kMaterializeMiss,
                  obs::CorrelationScope::WithEntity(id));
    }
  }
  obs::Record(obs::Decision::kSample,
              StrFormat("hits=%zu misses=%zu", out.materialized.size(),
                        out.to_rematerialize.size()));
  return out;
}

void DataManager::EnablePrefetch(ExecutionEngine* engine) {
  CDPIPE_CHECK(engine != nullptr);
  prefetch_engine_ = engine;
}

void DataManager::DisablePrefetch() { prefetch_engine_ = nullptr; }

void DataManager::PrefetchForNextSample(size_t sample_size,
                                        size_t chunks_ahead, const Rng& rng) {
  if (prefetch_engine_ == nullptr || !store_.spilling_enabled()) return;
  Rng clone = rng;
  store_.Prefetch(
      sampler_->Sample(store_.LiveIdsAfterPuts(next_id_, chunks_ahead),
                       sample_size, &clone),
      prefetch_engine_);
}

}  // namespace cdpipe

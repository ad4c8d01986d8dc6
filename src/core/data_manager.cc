#include "src/core/data_manager.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/correlation.h"
#include "src/obs/decision.h"
#include "src/obs/health.h"
#include "src/storage/prefetcher.h"
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

DataManager::~DataManager() = default;

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
  prefetcher_ = std::make_unique<Prefetcher>(&store_, engine);
}

void DataManager::DisablePrefetch() { prefetcher_.reset(); }

void DataManager::PrefetchForNextSample(size_t sample_size,
                                        size_t chunks_ahead, const Rng& rng) {
  if (prefetcher_ == nullptr || !store_.spilling_enabled()) return;
  // The live-id list at the next sample: today's chunks plus the
  // `chunks_ahead` consecutive ids about to be ingested, trimmed to the
  // retention bound from the front exactly as the store will trim it.
  std::vector<ChunkId> future = store_.LiveIds();
  future.reserve(future.size() + chunks_ahead);
  for (size_t i = 0; i < chunks_ahead; ++i) {
    future.push_back(next_id_ + static_cast<ChunkId>(i));
  }
  const size_t max_raw = store_.options().max_raw_chunks;
  if (max_raw > 0 && future.size() > max_raw) {
    future.erase(future.begin(),
                 future.begin() + static_cast<ptrdiff_t>(future.size() -
                                                         max_raw));
  }
  Rng clone = rng;
  prefetcher_->Schedule(sampler_->Sample(future, sample_size, &clone));
}

}  // namespace cdpipe

#include "src/storage/chunk_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/core/cost_model.h"
#include "src/engine/execution_engine.h"
#include "src/obs/correlation.h"
#include "src/obs/decision.h"
#include "src/obs/metrics.h"
#include "src/storage/spill_file.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {

/// Registry handles are fetched once and shared by every store instance:
/// the global metrics aggregate over all stores in the process, gauges
/// reflect the most recent writer.
struct StoreMetrics {
  obs::Counter* features_inserted;
  obs::Counter* memory_hits;
  obs::Counter* disk_hits;
  obs::Counter* spill_corrupt;
  obs::Gauge* num_raw;
  obs::Gauge* num_materialized;
  obs::Gauge* raw_bytes;
  obs::Gauge* feature_bytes;
  obs::Gauge* disk_bytes;
  obs::Gauge* spill_files;
  obs::Gauge* empirical_mu;

  static const StoreMetrics& Get() {
    static const StoreMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      StoreMetrics m;
      m.features_inserted =
          registry.GetCounter("chunk_store.features_inserted");
      m.memory_hits = registry.GetCounter("chunk_store.memory_hits");
      m.disk_hits = registry.GetCounter("chunk_store.disk_hits");
      m.spill_corrupt =
          registry.GetCounter("chunk_store.spill_corrupt_detected");
      m.num_raw = registry.GetGauge("chunk_store.num_raw");
      m.num_materialized = registry.GetGauge("chunk_store.num_materialized");
      m.raw_bytes = registry.GetGauge("chunk_store.raw_bytes");
      m.feature_bytes = registry.GetGauge("chunk_store.feature_bytes");
      m.disk_bytes = registry.GetGauge("chunk_store.disk_bytes");
      m.spill_files = registry.GetGauge("chunk_store.spill_files");
      m.empirical_mu = registry.GetGauge("chunk_store.empirical_mu");
      return m;
    }();
    return metrics;
  }
};

/// Reads and decodes one spill file, charging the read to `cost` and
/// counting a corrupt file in `corrupt_detected`: the one place a corrupt
/// file is counted.  Runs on the owner's thread or on an async lane, so it
/// touches nothing of the store.
Result<RawChunk> LoadSpill(const std::string& path, ChunkId id,
                           CostModel* cost,
                           std::atomic<int64_t>* corrupt_detected) {
  Result<RawChunk> loaded = [&]() -> Result<RawChunk> {
    CostModel::ScopedTimer timer(cost, CostPhase::kDiskLoad,
                                 "storage.disk_load");
    // A throwing read (injected fault, filesystem surprise) degrades like
    // any other read failure instead of unwinding the caller.
    try {
      return ReadRawChunkSpill(path, id);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("disk load threw: ") + e.what());
    } catch (...) {
      return Status::Internal("disk load threw a non-std exception");
    }
  }();
  if (!loaded.ok() && loaded.status().code() == StatusCode::kInvalidArgument) {
    corrupt_detected->fetch_add(1, std::memory_order_relaxed);
    StoreMetrics::Get().spill_corrupt->Increment();
  }
  return loaded;
}

}  // namespace

ChunkStore::ChunkStore(Options options) : options_(std::move(options)) {}

ChunkStore::~ChunkStore() {
  for (const auto& [id, entry] : disk_) {
    std::remove(entry.path.c_str());
  }
}

Status ChunkStore::PutRaw(RawChunk chunk) {
  // Pointers handed out by FetchRaw are documented to live until the next
  // PutRaw; recycle the pinned staging area before anything else.
  pinned_.clear();
  CDPIPE_FAULT_POINT("chunk_store.put_raw");
  // The newest chunk is never spilled, so the memory tier holds it.
  if (!memory_.empty() && chunk.id <= memory_.rbegin()->first) {
    return Status::InvalidArgument(
        "raw chunk ids must be strictly increasing: got " +
        std::to_string(chunk.id) + " after " +
        std::to_string(memory_.rbegin()->first));
  }
  const ChunkId id = chunk.id;
  const size_t records = chunk.records.size();
  raw_bytes_ += chunk.ByteSize();
  memory_.emplace_hint(memory_.end(), id, std::move(chunk));
  ++counters_.raw_inserted;
  if (options_.max_raw_chunks > 0) {
    while (num_raw() > options_.max_raw_chunks) DropOldestRaw();
  }
  if (spilling_enabled()) MaybeSpillOverBudget();
  UpdateResidencyGauges();
  obs::Record(obs::Decision::kIngest, obs::CorrelationScope::WithEntity(id),
              StrFormat("records=%zu", records));
  return Status::OK();
}

Status ChunkStore::PutFeatures(FeatureChunk chunk) {
  CDPIPE_FAULT_POINT("chunk_store.put_features");
  if (!Contains(chunk.origin_id)) {
    return Status::NotFound("no raw chunk with id " +
                            std::to_string(chunk.origin_id) +
                            " to attach features to");
  }
  if (options_.max_materialized_chunks == 0) {
    return Status::OK();  // materialization disabled (rate 0.0)
  }
  const ChunkId id = chunk.origin_id;
  if (!features_.empty() && id <= features_.rbegin()->first) {
    return Status::InvalidArgument(
        "feature chunk ids must be strictly increasing: got " +
        std::to_string(id) + " after " +
        std::to_string(features_.rbegin()->first));
  }
  feature_bytes_ += chunk.ByteSize();
  features_.emplace_hint(features_.end(), id, std::move(chunk));
  ++counters_.features_inserted;
  StoreMetrics::Get().features_inserted->Increment();
  while (features_.size() > options_.max_materialized_chunks) {
    EvictOldestMaterialized();
  }
  UpdateResidencyGauges();
  return Status::OK();
}

std::vector<ChunkId> ChunkStore::LiveIds() const {
  std::vector<ChunkId> ids;
  ids.reserve(num_raw());
  for (const auto& [id, entry] : disk_) ids.push_back(id);
  for (const auto& [id, chunk] : memory_) ids.push_back(id);
  return ids;
}

std::vector<ChunkId> ChunkStore::LiveIdsAfterPuts(ChunkId first_id,
                                                  size_t count) const {
  std::vector<ChunkId> ids = LiveIds();
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(first_id + static_cast<ChunkId>(i));
  }
  // PutRaw drops the oldest chunk while more than N are live.
  const size_t bound = options_.max_raw_chunks;
  if (bound > 0 && ids.size() > bound) {
    ids.erase(ids.begin(), ids.end() - static_cast<ptrdiff_t>(bound));
  }
  return ids;
}

const RawChunk* ChunkStore::GetRaw(ChunkId id) const {
  auto it = memory_.find(id);
  return it != memory_.end() ? &it->second : nullptr;
}

const RawChunk* ChunkStore::FetchRaw(ChunkId id) {
  if (const RawChunk* in_memory = GetRaw(id)) return in_memory;
  auto spill_it = disk_.find(id);
  if (spill_it == disk_.end()) return nullptr;

  // Prefer a staged load: collect it, waiting while it is in flight rather
  // than reading the file a second time.  After a failure other than
  // corruption (injected exception, transient IO), read the file directly.
  Result<RawChunk> loaded = Status::NotFound("not staged");
  bool from_stage = false;
  if (auto staged_it = staged_.find(id); staged_it != staged_.end()) {
    loaded = staged_it->second.get();
    staged_.erase(staged_it);
    from_stage = loaded.ok() ||
                 loaded.status().code() == StatusCode::kInvalidArgument;
  }
  if (!from_stage) {
    loaded =
        LoadSpill(spill_it->second.path, id, cost_, corrupt_detected_.get());
  }
  if (loaded.ok()) {
    pinned_.push_back(std::make_unique<RawChunk>(std::move(loaded).value()));
    ++(from_stage ? counters_.prefetch_hits : counters_.disk_loads);
    obs::Record(
        from_stage ? obs::Decision::kPrefetchHit : obs::Decision::kDiskLoad,
        obs::CorrelationScope::WithEntity(id));
    return pinned_.back().get();
  }
  if (loaded.status().code() == StatusCode::kInvalidArgument) {
    // Corrupt or truncated file, already counted where it was decoded: this
    // chunk's bytes are gone.  Drop it entirely (recompute-from-nothing) so
    // the sampler stops seeing it.
    DropSpilledChunk(id, loaded.status());
    UpdateResidencyGauges();
    return nullptr;
  }
  // Open/read failure: keep the chunk live and let the caller degrade —
  // a later access retries the disk.
  obs::Record(obs::Decision::kSpillReadFailed,
              obs::CorrelationScope::WithEntity(id));
  return nullptr;
}

const FeatureChunk* ChunkStore::GetFeatures(ChunkId id) const {
  auto it = features_.find(id);
  return it != features_.end() ? &it->second : nullptr;
}

bool ChunkStore::Evict(ChunkId id) {
  auto it = features_.find(id);
  if (it == features_.end()) return false;
  EraseFeatures(it);
  ++counters_.evictions;
  obs::Record(obs::Decision::kEvictFeatures,
              obs::CorrelationScope::WithEntity(id));
  UpdateResidencyGauges();
  return true;
}

void ChunkStore::RecordSampleAccess(ChunkId id) {
  if (IsMaterialized(id)) {
    if (IsSpilled(id)) {
      ++counters_.disk_hits;
      StoreMetrics::Get().disk_hits->Increment();
    } else {
      ++counters_.memory_hits;
      StoreMetrics::Get().memory_hits->Increment();
    }
  } else {
    ++counters_.sample_misses;
  }
  StoreMetrics::Get().empirical_mu->Set(counters().EmpiricalMu());
}

ChunkStore::Counters ChunkStore::counters() const {
  Counters snapshot = counters_;
  snapshot.spill_corrupt_detected =
      corrupt_detected_->load(std::memory_order_relaxed);
  return snapshot;
}

void ChunkStore::ResetCounters() {
  counters_ = Counters{};
  corrupt_detected_->store(0, std::memory_order_relaxed);
  UpdateResidencyGauges();
}

size_t ChunkStore::Prefetch(const std::vector<ChunkId>& ids,
                            ExecutionEngine* engine) {
  for (auto it = staged_.begin(); it != staged_.end();) {
    const bool wanted =
        std::find(ids.begin(), ids.end(), it->first) != ids.end();
    const bool done = it->second.wait_for(std::chrono::seconds(0)) ==
                      std::future_status::ready;
    it = wanted || !done ? std::next(it) : staged_.erase(it);
  }
  size_t submitted = 0;
  for (const ChunkId id : ids) {
    auto spill_it = disk_.find(id);
    if (spill_it == disk_.end() || staged_.count(id) > 0) continue;
    // The load owns copies of what it uses, not a pointer to the store,
    // so the store may be gone by the time the lane runs it.
    auto load = std::make_shared<std::packaged_task<Result<RawChunk>()>>(
        [path = spill_it->second.path, id, cost = cost_,
         corrupt_detected = corrupt_detected_] {
          return LoadSpill(path, id, cost, corrupt_detected.get());
        });
    staged_.emplace(id, load->get_future());
    engine->SubmitAsync([load] { (*load)(); });
    ++submitted;
  }
  return submitted;
}

void ChunkStore::EraseFeatures(
    std::map<ChunkId, FeatureChunk>::iterator it) {
  feature_bytes_ -= it->second.ByteSize();
  features_.erase(it);
}

void ChunkStore::EvictOldestMaterialized() {
  CDPIPE_CHECK(!features_.empty());
  const ChunkId victim = features_.begin()->first;
  // Only the content goes; the identifier and the reference to the raw
  // chunk survive implicitly (the raw chunk is still in the log).
  EraseFeatures(features_.begin());
  ++counters_.evictions;
  obs::Record(obs::Decision::kEvictFeaturesLru,
              obs::CorrelationScope::WithEntity(victim));
}

void ChunkStore::DropOldestRaw() {
  ChunkId victim = 0;
  if (!disk_.empty()) {
    auto spill_it = disk_.begin();
    victim = spill_it->first;
    disk_bytes_ -= static_cast<size_t>(spill_it->second.file_bytes);
    std::remove(spill_it->second.path.c_str());
    disk_.erase(spill_it);
  } else {
    CDPIPE_CHECK(!memory_.empty());
    auto raw_it = memory_.begin();
    victim = raw_it->first;
    raw_bytes_ -= raw_it->second.ByteSize();
    memory_.erase(raw_it);
  }
  ++counters_.raw_dropped;
  obs::Record(obs::Decision::kEvictRaw,
              obs::CorrelationScope::WithEntity(victim));
  // A feature chunk must never outlive its raw chunk.
  auto feat_it = features_.find(victim);
  if (feat_it != features_.end()) EraseFeatures(feat_it);
}

void ChunkStore::MaybeSpillOverBudget() {
  // Spill coldest-first until the budget holds, but never the chunk that
  // was just inserted: the deployment loop reads it back right away.
  while (raw_bytes_ > options_.memory_budget_bytes && memory_.size() > 1) {
    if (!SpillChunk(memory_.begin()->first)) break;
  }
}

bool ChunkStore::SpillChunk(ChunkId id) {
  auto raw_it = memory_.find(id);
  CDPIPE_CHECK(raw_it != memory_.end());
  const std::string path = StrFormat("%s/chunk_%lld.spill",
                                     options_.spill_dir.c_str(),
                                     static_cast<long long>(id));
  Result<SpillFileInfo> written = [&]() -> Result<SpillFileInfo> {
    CostModel::ScopedTimer timer(cost_, CostPhase::kSpill, "storage.spill");
    return WriteRawChunkSpill(path, raw_it->second);
  }();
  if (!written.ok()) {
    // Degrade to keep-in-memory: the budget stays exceeded until a later
    // insert retries the spill.
    ++counters_.spill_failures;
    obs::Record(obs::Decision::kSpillWriteFailed,
                obs::CorrelationScope::WithEntity(id));
    return false;
  }
  const size_t chunk_bytes = raw_it->second.ByteSize();
  SpillEntry entry;
  entry.path = path;
  entry.file_bytes = written->bytes_written;
  entry.raw_bytes = chunk_bytes;
  disk_.emplace_hint(disk_.end(), id, std::move(entry));
  raw_bytes_ -= chunk_bytes;
  disk_bytes_ += static_cast<size_t>(written->bytes_written);
  memory_.erase(raw_it);
  ++counters_.chunks_spilled;
  counters_.spill_bytes_written += written->bytes_written;
  counters_.spill_raw_bytes += static_cast<int64_t>(chunk_bytes);
  obs::Record(obs::Decision::kSpill, obs::CorrelationScope::WithEntity(id));
  return true;
}

void ChunkStore::DropSpilledChunk(ChunkId id, const Status& cause) {
  auto spill_it = disk_.find(id);
  CDPIPE_CHECK(spill_it != disk_.end());
  disk_bytes_ -= static_cast<size_t>(spill_it->second.file_bytes);
  std::remove(spill_it->second.path.c_str());
  disk_.erase(spill_it);
  ++counters_.spilled_chunks_dropped;
  const obs::CorrelationId corr = obs::CorrelationScope::WithEntity(id);
  obs::Record(obs::Decision::kEvictRawCorrupt, corr);
  obs::Record(obs::Decision::kSpillCorruptDropped, corr, {}, cause);
  // A feature chunk must never outlive its raw chunk.
  auto feat_it = features_.find(id);
  if (feat_it != features_.end()) EraseFeatures(feat_it);
}

void ChunkStore::UpdateResidencyGauges() const {
  const StoreMetrics& metrics = StoreMetrics::Get();
  metrics.num_raw->Set(static_cast<double>(num_raw()));
  metrics.num_materialized->Set(static_cast<double>(features_.size()));
  metrics.raw_bytes->Set(static_cast<double>(raw_bytes_));
  metrics.feature_bytes->Set(static_cast<double>(feature_bytes_));
  metrics.disk_bytes->Set(static_cast<double>(disk_bytes_));
  metrics.spill_files->Set(static_cast<double>(disk_.size()));
}

}  // namespace cdpipe

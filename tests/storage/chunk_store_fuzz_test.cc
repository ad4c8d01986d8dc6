// Property/fuzz test: the ChunkStore is exercised with long random
// operation sequences and checked after every step against a trivially
// correct reference model (plain ordered containers).  Catches invariant
// violations the unit tests' hand-picked sequences cannot.

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/storage/chunk_store.h"

namespace cdpipe {
namespace {

/// Straight-line re-implementation of the store's contract.
class ReferenceStore {
 public:
  ReferenceStore(size_t max_raw, size_t max_materialized)
      : max_raw_(max_raw), max_materialized_(max_materialized) {}

  void PutRaw(ChunkId id) {
    raw_.push_back(id);
    if (max_raw_ > 0 && raw_.size() > max_raw_) {
      const ChunkId victim = raw_.front();
      raw_.pop_front();
      materialized_.erase(victim);
    }
  }

  bool PutFeatures(ChunkId id) {
    if (std::find(raw_.begin(), raw_.end(), id) == raw_.end()) return false;
    if (max_materialized_ == 0) return true;
    // Append-only: a stored id, or one older than the newest stored, is
    // refused.
    if (!materialized_.empty() && id <= *materialized_.rbegin()) return false;
    materialized_.insert(id);
    if (materialized_.size() > max_materialized_) {
      materialized_.erase(materialized_.begin());  // oldest id
    }
    return true;
  }

  const std::deque<ChunkId>& raw() const { return raw_; }
  const std::set<ChunkId>& materialized() const { return materialized_; }

 private:
  size_t max_raw_;
  size_t max_materialized_;
  std::deque<ChunkId> raw_;
  std::set<ChunkId> materialized_;  // sorted: begin() is oldest
};

FeatureChunk MakeFeatures(ChunkId id) {
  FeatureChunk chunk;
  chunk.origin_id = id;
  chunk.data.dim = 2;
  chunk.data.features.push_back(SparseVector::FromUnsorted(2, {{0, 1.0}}));
  chunk.data.labels.push_back(1.0);
  return chunk;
}

void CheckAgainstReference(const ChunkStore& store,
                           const ReferenceStore& reference) {
  ASSERT_EQ(store.num_raw(), reference.raw().size());
  ASSERT_EQ(store.num_materialized(), reference.materialized().size());
  const std::vector<ChunkId> live = store.LiveIds();
  ASSERT_EQ(live.size(), reference.raw().size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i], reference.raw()[i]);
    EXPECT_TRUE(store.Contains(live[i]));
    EXPECT_NE(store.GetRaw(live[i]), nullptr);
  }
  for (ChunkId id : reference.materialized()) {
    EXPECT_TRUE(store.IsMaterialized(id)) << "chunk " << id;
    ASSERT_NE(store.GetFeatures(id), nullptr);
    EXPECT_EQ(store.GetFeatures(id)->origin_id, id);
  }
}

struct FuzzParams {
  size_t max_raw;
  size_t max_materialized;
  uint64_t seed;
};

class ChunkStoreFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(ChunkStoreFuzzTest, MatchesReferenceModel) {
  const FuzzParams params = GetParam();
  ChunkStore::Options options;
  options.max_raw_chunks = params.max_raw;
  options.max_materialized_chunks = params.max_materialized;
  ChunkStore store(options);
  ReferenceStore reference(params.max_raw, params.max_materialized);
  Rng rng(params.seed);

  ChunkId next_id = 0;
  for (int step = 0; step < 2000; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 4 || next_id == 0) {
      // Insert a new raw chunk.
      RawChunk chunk;
      chunk.id = next_id++;
      chunk.records = {"r"};
      ASSERT_TRUE(store.PutRaw(std::move(chunk)).ok());
      reference.PutRaw(next_id - 1);
    } else if (op < 8) {
      // Materialize one of the newest ids, or any id (possibly dead,
      // already present, or older than the newest stored).
      const uint64_t span =
          op < 6 ? std::min<uint64_t>(static_cast<uint64_t>(next_id), 4)
                 : static_cast<uint64_t>(next_id);
      const ChunkId id =
          next_id - 1 - static_cast<ChunkId>(rng.NextBounded(span));
      const bool reference_ok = reference.PutFeatures(id);
      const Status status = store.PutFeatures(MakeFeatures(id));
      EXPECT_EQ(status.ok(), reference_ok) << "id " << id;
    } else {
      // Random sampling access (exercises the μ counters; no state change
      // beyond counters).
      if (store.num_raw() > 0) {
        const std::vector<ChunkId> live = store.LiveIds();
        store.RecordSampleAccess(
            live[rng.NextBounded(live.size())]);
      }
    }
    if (step % 50 == 0) CheckAgainstReference(store, reference);
  }
  CheckAgainstReference(store, reference);

  // Counter invariants hold at the end of any sequence.
  const auto& counters = store.counters();
  EXPECT_GE(counters.raw_inserted, static_cast<int64_t>(store.num_raw()));
  EXPECT_EQ(counters.raw_inserted - counters.raw_dropped,
            static_cast<int64_t>(store.num_raw()));
  EXPECT_GE(counters.SampleHits() + counters.sample_misses, 0);
  EXPECT_LE(counters.EmpiricalMu(), 1.0);
  EXPECT_GE(counters.EmpiricalMu(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChunkStoreFuzzTest,
    ::testing::Values(FuzzParams{0, SIZE_MAX, 1},  // unbounded
                      FuzzParams{0, 10, 2},        // bounded cache
                      FuzzParams{50, 10, 3},       // bounded raw + cache
                      FuzzParams{50, 0, 4},        // materialization off
                      FuzzParams{20, 100, 5},      // cache bigger than raw
                      FuzzParams{1, 1, 6}));       // degenerate

}  // namespace
}  // namespace cdpipe

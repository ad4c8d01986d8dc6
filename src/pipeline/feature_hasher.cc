#include "src/pipeline/feature_hasher.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/linalg/sparse_vector.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {
namespace {

/// Mixes every hash; a constant, so a raw index maps to the same bucket
/// and sign in every hasher of a given width.
constexpr uint64_t kHashSeed = 0x5bd1e995;

/// 64-bit finalizer from MurmurHash3; good avalanche behaviour for integer
/// keys at negligible cost.
uint64_t MixHash(uint64_t key, uint64_t seed) {
  uint64_t h = key ^ seed;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Transform kernel: rewrites the vector block in place (entries + row
/// offsets swap through scratch buffers).  Each row's output is the sorted,
/// duplicate-summed collapse of its (bucket, signed value) list — what
/// SparseVector::FromUnsorted would build.  Rows whose buckets are distinct
/// or collide at most pairwise take a dense accumulator instead of the
/// sort (a two-way IEEE sum is commutative, hence order-insensitive); only
/// three-way collisions or NaN values fall back to the sorted collapse.
class HashVecStage final : public fusion::FusedStage {
 public:
  explicit HashVecStage(const FeatureHasher* hasher) : hasher_(hasher) {}

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::ExecScratch& s = *ctx.scratch;
    fusion::VecBlock& vec = s.vec;
    ctx.rows_scanned += vec.num_rows();
    const uint32_t out_dim = hasher_->output_dim();
    const size_t total_nnz = vec.entries.size();

    // Dense accumulator state.  `acc` cells are gated by the occupancy
    // bitmap, so stale values are never read; the bitmaps themselves hold
    // the all-zero invariant between rows (each row clears the words it
    // touched), so they only need re-zeroing when resized.
    const bool use_dense = out_dim <= (1u << 22) &&
                           total_nnz * 64 >= static_cast<size_t>(out_dim);
    if (use_dense) {
      const size_t words = (out_dim + 63) / 64;
      const size_t summary_words = (words + 63) / 64;
      if (s.acc.size() < out_dim) s.acc.resize(out_dim);
      if (s.occupied.size() != words) s.occupied.assign(words, 0);
      if (s.summary.size() != summary_words) {
        s.summary.assign(summary_words, 0);
      }
    }

    auto hash_of = [&](uint32_t index) -> std::pair<uint32_t, double> {
      return {hasher_->BucketOf(index), hasher_->SignOf(index)};
    };

    s.out_entries.clear();
    s.out_entries.reserve(total_nnz);
    std::vector<std::pair<uint32_t, double>>& row = s.row_entries;
    std::vector<uint32_t>& collided = s.collided;
    uint32_t start = 0;
    for (size_t r = 0; r < vec.num_rows(); ++r) {
      const uint32_t stop = vec.row_end[r];
      const size_t out_start = s.out_entries.size();
      bool sorted_path = !use_dense;
      if (use_dense) {
        collided.clear();
        bool bail = false;
        for (uint32_t k = start; k < stop; ++k) {
          const auto [bucket, sign] = hash_of(vec.entries[k].first);
          const double value = sign * vec.entries[k].second;
          const size_t word = bucket >> 6;
          const uint64_t bit = uint64_t{1} << (bucket & 63);
          if (s.occupied[word] & bit) {
            // Second entry in this bucket: a two-way IEEE sum is
            // commutative, so accumulating in arrival order is bit-identical
            // to the sorted collapse regardless of how the unstable sort
            // would have ordered the pair.  Three-way sums and NaN payloads
            // are order-sensitive — those rows rewind to the sorted path.
            if (std::isnan(s.acc[bucket]) || std::isnan(value) ||
                std::find(collided.begin(), collided.end(), bucket) !=
                    collided.end()) {
              bail = true;
              break;
            }
            collided.push_back(bucket);
            s.acc[bucket] += value;
          } else {
            s.occupied[word] |= bit;
            s.summary[word >> 6] |= uint64_t{1} << (word & 63);
            s.acc[bucket] = value;
          }
        }
        if (!bail) {
          // Emit in ascending bucket order straight off the occupancy
          // bitmaps, then restore the all-zero invariant by re-reading the
          // buckets just emitted (sequential over fresh cache lines).
          for (size_t sw = 0; sw < s.summary.size(); ++sw) {
            uint64_t sword = s.summary[sw];
            while (sword != 0) {
              const size_t word = sw * 64 + __builtin_ctzll(sword);
              sword &= sword - 1;
              uint64_t bits = s.occupied[word];
              while (bits != 0) {
                const uint32_t bucket =
                    static_cast<uint32_t>(word * 64 + __builtin_ctzll(bits));
                bits &= bits - 1;
                s.out_entries.emplace_back(bucket, s.acc[bucket]);
              }
            }
          }
          for (size_t k = out_start; k < s.out_entries.size(); ++k) {
            const uint32_t bucket = s.out_entries[k].first;
            s.occupied[bucket >> 6] = 0;
            s.summary[bucket >> 12] = 0;
          }
        } else {
          // Zero the partially built bitmaps (the summary covers every
          // touched word) before rebuilding the row on the sorted path.
          for (size_t sw = 0; sw < s.summary.size(); ++sw) {
            uint64_t sword = s.summary[sw];
            if (sword == 0) continue;
            s.summary[sw] = 0;
            while (sword != 0) {
              s.occupied[sw * 64 + __builtin_ctzll(sword)] = 0;
              sword &= sword - 1;
            }
          }
          sorted_path = true;
        }
      }
      if (sorted_path) {
        // The reference collapse: hash in input order, sort the raw-order
        // (bucket, signed value) list, sum duplicates left to right.
        row.clear();
        for (uint32_t k = start; k < stop; ++k) {
          const auto [bucket, sign] = hash_of(vec.entries[k].first);
          row.emplace_back(bucket, sign * vec.entries[k].second);
        }
        SparseVector::SortAndCombineInto(&row);
        s.out_entries.insert(s.out_entries.end(), row.begin(), row.end());
      }
      vec.row_end[r] = static_cast<uint32_t>(s.out_entries.size());
      start = stop;
    }
    vec.entries.swap(s.out_entries);
    vec.dim = out_dim;
    return Status::OK();
  }

 private:
  const FeatureHasher* hasher_;
};

}  // namespace

FeatureHasher::FeatureHasher(Options options) : options_(options) {
  CDPIPE_CHECK_GT(options_.bits, 0u);
  CDPIPE_CHECK_LE(options_.bits, 30u);
}

uint32_t FeatureHasher::BucketOf(uint32_t index) const {
  return static_cast<uint32_t>(MixHash(index, kHashSeed)) &
         (output_dim() - 1);
}

double FeatureHasher::SignOf(uint32_t index) const {
  // An independent bit of the mixed hash decides the sign.
  return (MixHash(index, kHashSeed ^ 0x9E3779B97F4A7C15ULL) & 1u) != 0
             ? 1.0
             : -1.0;
}

Status FeatureHasher::Fuse(fusion::PlanBuilder* plan) {
  if (plan->repr() != fusion::PlanBuilder::Repr::kVec) {
    return Status::FailedPrecondition(
        "feature_hasher expects a vectorized batch; place it after the "
        "parser / encoder");
  }
  plan->AddStage(std::make_unique<HashVecStage>(this));
  plan->BeginVec(output_dim());
  return Status::OK();
}

std::unique_ptr<PipelineComponent> FeatureHasher::Clone() const {
  return std::make_unique<FeatureHasher>(options_);
}

}  // namespace cdpipe

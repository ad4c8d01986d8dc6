// The sharded gradient kernel against the row-at-a-time reference
// (tests/spec/gradient_spec.h): exact (`==`) equality of every entry and
// of the bias gradient, for each loss, at row counts around the kernel's
// prefetch distance and at single-shard, multi-shard and 64-shard counts,
// over chunks with mixed nominal dims and empty rows, in chunk-then-row
// order and in a shuffled order (BatchTrainer's epochs), serially and on a
// 4-thread engine.  Two more inputs hold the accumulator's 64-bit
// occupancy words to the reference: nominal dims on either side of a word
// boundary, and one thread's scratch reused across a wide, a narrow and
// the wide gradient again.

#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/engine/execution_engine.h"
#include "src/ml/batch_view.h"
#include "src/ml/linear_model.h"
#include "tests/spec/gradient_spec.h"
#include "tests/testing/feature_data_test_util.h"

namespace cdpipe {
namespace spec {
namespace {

using ::cdpipe::testing::MergeFeatureData;
using ::cdpipe::testing::RandomSparseChunk;

/// The chunk lists a case computes one gradient each over, in order.
enum class Inputs {
  kMixedDims,          ///< one gradient over chunks of dims 40, 64, 4096
  kWordBoundaryDims,   ///< one gradient per chunk of dim 63, 64, 65, 129
  kScratchReuse,       ///< dim 4096, then 40, then the 4096 chunk again
};

/// (loss, rows, shuffled row order, inputs).
using GradientCase = std::tuple<LossKind, size_t, bool, Inputs>;

/// `rows` rows of nominal dim `dim`, each holding the coordinates 0, 63,
/// 64 and dim - 1 that are below `dim`: the first and last bit of the
/// first occupancy word, the first bit of the second, and the last
/// coordinate.
FeatureData WordBoundaryChunk(uint32_t dim, size_t rows, uint64_t seed) {
  Rng rng(seed);
  FeatureData chunk;
  chunk.dim = dim;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::pair<uint32_t, double>> entries;
    for (uint32_t index : std::set<uint32_t>{0, 63, 64, dim - 1}) {
      if (index < dim) entries.push_back({index, rng.NextGaussian()});
    }
    chunk.features.push_back(
        SparseVector::FromUnsorted(dim, std::move(entries)));
    chunk.labels.push_back(rng.NextUint64() % 2 == 0 ? 1.0 : -1.0);
  }
  return chunk;
}

class GradientSpecTest : public ::testing::TestWithParam<GradientCase> {};

TEST_P(GradientSpecTest, KernelEqualsRowAtATimeReference) {
  const auto [loss, total_rows, shuffled, inputs] = GetParam();
  // Mixed dims: three chunks with different nominal dims (a grown
  // dictionary), the wide one touching a sparse set of coordinates.  Empty
  // rows are interleaved, from 8 rows on.
  const size_t narrow_rows = total_rows / 4;
  const size_t wide_rows = total_rows / 4;
  std::vector<FeatureData> chunks;
  std::vector<std::vector<size_t>> gradients;  // chunk indices, one list each
  switch (inputs) {
    case Inputs::kMixedDims:
      chunks.push_back(RandomSparseChunk(40, narrow_rows, 5, 1, 7));
      chunks.push_back(RandomSparseChunk(
          64, total_rows - narrow_rows - wide_rows, 6, 2, 3));
      chunks.push_back(RandomSparseChunk(4096, wide_rows, 4, 3, 3));
      gradients = {{0, 1, 2}};
      break;
    case Inputs::kWordBoundaryDims:
      for (uint32_t dim : {63u, 64u, 65u, 129u}) {
        gradients.push_back({chunks.size()});
        chunks.push_back(WordBoundaryChunk(dim, total_rows, dim));
      }
      break;
    case Inputs::kScratchReuse:
      chunks.push_back(RandomSparseChunk(4096, total_rows, 4, 3, 3));
      chunks.push_back(RandomSparseChunk(40, total_rows, 5, 1, 7));
      gradients = {{0}, {1}, {0}};
      break;
  }

  LinearModel model(LinearModel::Options{
      .loss = loss, .l2_reg = 1e-3, .initial_dim = 4096});
  // Non-trivial weights: hinge rows land on both sides of the margin.
  Rng rng(17);
  for (uint32_t i = 0; i < model.dim(); ++i) {
    (*model.mutable_weights())[i] = 0.5 * rng.NextGaussian();
  }
  model.set_bias(0.1);

  struct Case {
    uint32_t dim = 0;
    std::vector<BatchView::RowRef> rows;
    FeatureData permuted;  // the shuffled rows, in the refs' order
    Gradient reference;
  };
  std::vector<Case> cases(gradients.size());
  for (size_t g = 0; g < gradients.size(); ++g) {
    Case& c = cases[g];
    std::vector<const FeatureData*> views;
    for (size_t i : gradients[g]) views.push_back(&chunks[i]);
    auto rows = BatchView::CollectRows(views, &c.dim);
    ASSERT_TRUE(rows.ok());
    c.rows = *std::move(rows);
    size_t num_rows = 0;
    for (const FeatureData* chunk : views) num_rows += chunk->num_rows();
    ASSERT_EQ(c.rows.size(), num_rows);
    // A shuffled case permutes the refs as a BatchTrainer epoch does; the
    // reference reads a copy of the same rows in the same order.
    if (shuffled) {
      std::vector<size_t> order(c.rows.size());
      std::iota(order.begin(), order.end(), size_t{0});
      Rng(29).Shuffle(&order);
      const std::vector<BatchView::RowRef> in_order = c.rows;
      const FeatureData merged = MergeFeatureData(views);
      c.permuted.dim = merged.dim;
      for (size_t i = 0; i < order.size(); ++i) {
        c.rows[i] = in_order[order[i]];
        c.permuted.features.push_back(merged.features[order[i]]);
        c.permuted.labels.push_back(merged.labels[order[i]]);
      }
      views = {&c.permuted};
    }
    c.reference = ReferenceGradient(model, views);
    ASSERT_FALSE(c.reference.entries.empty());
  }

  // Every gradient serially on this thread first, then every one on the
  // engine: each thread's scratch carries over from one gradient to the
  // next.
  ExecutionEngine pool(4);
  for (ExecutionEngine* engine : {static_cast<ExecutionEngine*>(nullptr),
                                  &pool}) {
    for (size_t g = 0; g < cases.size(); ++g) {
      const Case& c = cases[g];
      std::vector<GradEntry> grad;
      double bias_grad = 0.0;
      ASSERT_TRUE(model
                      .ComputeGradient(BatchView(c.dim, c.rows), &grad,
                                       &bias_grad, engine)
                      .ok());
      const std::string where =
          std::string(engine == nullptr ? "serial" : "4 threads") +
          ", gradient " + std::to_string(g) + " (dim " +
          std::to_string(c.dim) + ")";
      ASSERT_EQ(grad.size(), c.reference.entries.size()) << where;
      for (size_t i = 0; i < grad.size(); ++i) {
        ASSERT_EQ(grad[i].index, c.reference.entries[i].index) << where;
        ASSERT_EQ(grad[i].value, c.reference.entries[i].value)
            << where << ", coordinate " << grad[i].index;
      }
      EXPECT_EQ(bias_grad, c.reference.bias) << where;
    }
  }
}

std::string ParamName(const ::testing::TestParamInfo<GradientCase>& info) {
  const auto [loss, rows, shuffled, inputs] = info.param;
  const char* const suffix[] = {"", "_word_boundary_dims", "_scratch_reuse"};
  return std::string(LossKindName(loss)) + "_" + std::to_string(rows) +
         "rows" + (shuffled ? "_shuffled" : "") +
         suffix[static_cast<int>(inputs)];
}

// The kernel prefetches 8 and 16 rows ahead of the current one: 1 and 8
// rows prefetch nothing, 16 rows only entry arrays, 17 rows one header.
// 200 rows: one shard.  1000 rows: 3 shards, the last one shorter.
// 17000 rows: the 64-shard cap (17000 / 256 = 66).
INSTANTIATE_TEST_SUITE_P(
    LossesAndShards, GradientSpecTest,
    ::testing::Combine(::testing::Values(LossKind::kSquared, LossKind::kHinge),
                       ::testing::Values(size_t{1}, size_t{8}, size_t{16},
                                         size_t{17}, size_t{200}, size_t{1000},
                                         size_t{17000}),
                       ::testing::Bool(),
                       ::testing::Values(Inputs::kMixedDims)),
    ParamName);

// One row, one shard, and 3 shards (whose partials are merged in a second
// scratch use on the calling thread).
INSTANTIATE_TEST_SUITE_P(
    OccupancyWords, GradientSpecTest,
    ::testing::Combine(::testing::Values(LossKind::kSquared, LossKind::kHinge),
                       ::testing::Values(size_t{1}, size_t{200}, size_t{1000}),
                       ::testing::Values(false),
                       ::testing::Values(Inputs::kWordBoundaryDims,
                                         Inputs::kScratchReuse)),
    ParamName);

}  // namespace
}  // namespace spec
}  // namespace cdpipe

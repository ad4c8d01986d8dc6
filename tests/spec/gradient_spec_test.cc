// The sharded gradient kernel against the row-at-a-time reference
// (tests/spec/gradient_spec.h): exact (`==`) equality of every entry and
// of the bias gradient, for each loss, at row counts around the kernel's
// prefetch distance and at single-shard, multi-shard and 64-shard counts,
// over chunks with mixed nominal dims and empty rows, in chunk-then-row
// order and in a shuffled order (BatchTrainer's epochs), serially and on a
// 4-thread engine.

#include <numeric>
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

/// (loss, rows, shuffled row order).
using GradientCase = std::tuple<LossKind, size_t, bool>;

class GradientSpecTest : public ::testing::TestWithParam<GradientCase> {};

TEST_P(GradientSpecTest, KernelEqualsRowAtATimeReference) {
  const auto [loss, total_rows, shuffled] = GetParam();
  // Three chunks with different nominal dims (a grown dictionary); the
  // wide one keeps the touched set sparse, so both extraction orders of
  // the kernel's accumulator run.  Empty rows are interleaved, from 8
  // rows on.
  const size_t narrow_rows = total_rows / 4;
  const size_t wide_rows = total_rows / 4;
  FeatureData narrow = RandomSparseChunk(40, narrow_rows, 5, 1, 7);
  FeatureData middle = RandomSparseChunk(
      64, total_rows - narrow_rows - wide_rows, 6, 2, 3);
  FeatureData wide = RandomSparseChunk(4096, wide_rows, 4, 3, 3);
  const std::vector<const FeatureData*> chunks = {&narrow, &middle, &wide};

  LinearModel model(LinearModel::Options{
      .loss = loss, .l2_reg = 1e-3, .initial_dim = 4096});
  // Non-trivial weights: hinge rows land on both sides of the margin.
  Rng rng(17);
  for (uint32_t i = 0; i < model.dim(); ++i) {
    (*model.mutable_weights())[i] = 0.5 * rng.NextGaussian();
  }
  model.set_bias(0.1);

  uint32_t dim = 0;
  auto rows = BatchView::CollectRows(chunks, &dim);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), total_rows);
  // A shuffled case permutes the refs as a BatchTrainer epoch does; the
  // reference reads a copy of the same rows in the same order.
  FeatureData permuted;
  std::vector<const FeatureData*> reference_chunks = chunks;
  if (shuffled) {
    std::vector<size_t> order(total_rows);
    std::iota(order.begin(), order.end(), size_t{0});
    Rng(29).Shuffle(&order);
    const std::vector<BatchView::RowRef> in_order = *rows;
    const FeatureData merged = MergeFeatureData(chunks);
    permuted.dim = merged.dim;
    for (size_t i = 0; i < total_rows; ++i) {
      (*rows)[i] = in_order[order[i]];
      permuted.features.push_back(merged.features[order[i]]);
      permuted.labels.push_back(merged.labels[order[i]]);
    }
    reference_chunks = {&permuted};
  }
  const BatchView batch(dim, *rows);
  const Gradient reference = ReferenceGradient(model, reference_chunks);
  ASSERT_FALSE(reference.entries.empty());

  ExecutionEngine pool(4);
  for (ExecutionEngine* engine : {static_cast<ExecutionEngine*>(nullptr),
                                  &pool}) {
    std::vector<GradEntry> grad;
    double bias_grad = 0.0;
    ASSERT_TRUE(model.ComputeGradient(batch, &grad, &bias_grad, engine).ok());
    const std::string where = engine == nullptr ? "serial" : "4 threads";
    ASSERT_EQ(grad.size(), reference.entries.size()) << where;
    for (size_t i = 0; i < grad.size(); ++i) {
      ASSERT_EQ(grad[i].index, reference.entries[i].index) << where;
      ASSERT_EQ(grad[i].value, reference.entries[i].value)
          << where << ", coordinate " << grad[i].index;
    }
    EXPECT_EQ(bias_grad, reference.bias) << where;
  }
}

std::string ParamName(const ::testing::TestParamInfo<GradientCase>& info) {
  return std::string(LossKindName(std::get<0>(info.param))) + "_" +
         std::to_string(std::get<1>(info.param)) + "rows" +
         (std::get<2>(info.param) ? "_shuffled" : "");
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
                       ::testing::Bool()),
    ParamName);

}  // namespace
}  // namespace spec
}  // namespace cdpipe

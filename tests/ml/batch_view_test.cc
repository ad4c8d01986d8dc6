#include "src/ml/batch_view.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

FeatureData MakeChunk(uint32_t dim, std::vector<double> labels) {
  FeatureData chunk;
  chunk.dim = dim;
  for (size_t r = 0; r < labels.size(); ++r) {
    chunk.features.push_back(SparseVector::FromUnsorted(
        dim, {{static_cast<uint32_t>(r % dim), 1.0 + static_cast<double>(r)}}));
    chunk.labels.push_back(labels[r]);
  }
  return chunk;
}

TEST(BatchViewTest, CollectRowsFlattensChunkThenRowOrder) {
  FeatureData a = MakeChunk(4, {1.0, 2.0});
  FeatureData b = MakeChunk(4, {3.0});
  auto rows = BatchView::CollectRows({&a, &b}, nullptr);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  // Each ref points at its chunk's own SparseVector (zero-copy) and
  // carries that row's label.
  const std::vector<std::pair<const FeatureData*, size_t>> expected = {
      {&a, 0}, {&a, 1}, {&b, 0}};
  for (size_t i = 0; i < expected.size(); ++i) {
    const auto [chunk, r] = expected[i];
    EXPECT_EQ((*rows)[i].row, &chunk->features[r]) << "ref " << i;
    EXPECT_EQ((*rows)[i].label, chunk->labels[r]) << "ref " << i;
  }
  const BatchView view(4, *rows);
  EXPECT_EQ(view.num_rows(), 3u);
  EXPECT_FALSE(view.empty());
  EXPECT_DOUBLE_EQ(view.label(0), 1.0);
  EXPECT_DOUBLE_EQ(view.label(1), 2.0);
  EXPECT_DOUBLE_EQ(view.label(2), 3.0);
  // feature(i) is a reference into the owning chunk, not a copy.
  EXPECT_EQ(&view.feature(0), &a.features[0]);
  EXPECT_EQ(&view.feature(2), &b.features[0]);
}

TEST(BatchViewTest, CollectRowsReportsMaxNominalDim) {
  FeatureData narrow = MakeChunk(4, {1.0});
  FeatureData wide = MakeChunk(9, {1.0, -1.0});
  uint32_t dim = 0;
  auto rows = BatchView::CollectRows({&narrow, &wide}, &dim);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(dim, 9u);

  // Dim widening is just a number on the view: rows from the narrow chunk
  // keep their original SparseVector (no reallocation).
  const BatchView view(dim, *rows);
  EXPECT_EQ(view.dim(), 9u);
  EXPECT_EQ(view.feature(0).dim(), 4u);
}

TEST(BatchViewTest, CollectRowsRejectsNullChunk) {
  FeatureData a = MakeChunk(4, {1.0});
  auto rows = BatchView::CollectRows({&a, nullptr}, nullptr);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchViewTest, CollectRowsRejectsMalformedChunk) {
  FeatureData bad = MakeChunk(4, {1.0, -1.0});
  bad.labels.pop_back();  // rows/labels length mismatch
  auto rows = BatchView::CollectRows({&bad}, nullptr);
  EXPECT_FALSE(rows.ok());
}

TEST(BatchViewTest, EmptyViewAndEmptyChunks) {
  const BatchView empty(0, nullptr, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.num_rows(), 0u);

  uint32_t dim = 123;
  auto rows = BatchView::CollectRows({}, &dim);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(dim, 0u);
}

TEST(BatchViewTest, SubrangeConstructionSlicesRowArray) {
  FeatureData a = MakeChunk(4, {1.0, 2.0, 3.0, 4.0, 5.0});
  auto rows = BatchView::CollectRows({&a}, nullptr);
  ASSERT_TRUE(rows.ok());
  // Mini-batch style: a window into the collected row array.
  const BatchView batch(4, rows->data() + 1, 3);
  ASSERT_EQ(batch.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(batch.label(0), 2.0);
  EXPECT_DOUBLE_EQ(batch.label(2), 4.0);
  EXPECT_EQ(&batch.feature(0), &a.features[1]);
  EXPECT_EQ(&batch.feature(2), &a.features[3]);
}

}  // namespace
}  // namespace cdpipe

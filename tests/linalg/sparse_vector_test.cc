#include "src/linalg/sparse_vector.h"

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(SparseVectorTest, EmptyVector) {
  SparseVector v(10);
  EXPECT_EQ(v.dim(), 10u);
  EXPECT_EQ(v.nnz(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_DOUBLE_EQ(v.Get(3), 0.0);
}

TEST(SparseVectorTest, FromSortedValid) {
  auto v = SparseVector::FromSorted(8, {1, 4, 7}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->nnz(), 3u);
  EXPECT_DOUBLE_EQ(v->Get(4), 2.0);
  EXPECT_DOUBLE_EQ(v->Get(5), 0.0);
}

TEST(SparseVectorTest, FromSortedRejectsUnsorted) {
  EXPECT_FALSE(SparseVector::FromSorted(8, {4, 1}, {1.0, 2.0}).ok());
  EXPECT_FALSE(SparseVector::FromSorted(8, {1, 1}, {1.0, 2.0}).ok());
}

TEST(SparseVectorTest, FromSortedRejectsOutOfRange) {
  EXPECT_FALSE(SparseVector::FromSorted(8, {8}, {1.0}).ok());
}

TEST(SparseVectorTest, FromSortedRejectsSizeMismatch) {
  EXPECT_FALSE(SparseVector::FromSorted(8, {1, 2}, {1.0}).ok());
}

TEST(SparseVectorTest, FromUnsortedSortsAndMerges) {
  SparseVector v =
      SparseVector::FromUnsorted(10, {{5, 1.0}, {2, 2.0}, {5, 3.0}});
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(2), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 4.0);  // duplicates accumulate
  EXPECT_EQ(v.indices()[0], 2u);
  EXPECT_EQ(v.indices()[1], 5u);
}

TEST(SparseVectorTest, ScaleAndTransform) {
  SparseVector v = SparseVector::FromUnsorted(4, {{0, 1.0}, {2, 2.0}});
  v.TransformValues([](uint32_t, double value) { return 3.0 * value; });
  EXPECT_DOUBLE_EQ(v.Get(0), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(2), 6.0);
  v.TransformValues([](uint32_t index, double value) {
    return index == 0 ? value : -value;
  });
  EXPECT_DOUBLE_EQ(v.Get(0), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(2), -6.0);
}

TEST(SparseVectorTest, EqualityOperator) {
  SparseVector a = SparseVector::FromUnsorted(5, {{1, 2.0}});
  SparseVector b = SparseVector::FromUnsorted(5, {{1, 2.0}});
  SparseVector c = SparseVector::FromUnsorted(5, {{1, 3.0}});
  SparseVector d = SparseVector::FromUnsorted(6, {{1, 2.0}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(SparseVectorTest, ByteSizeCountsBothArrays) {
  SparseVector v = SparseVector::FromUnsorted(100, {{1, 1.0}, {2, 2.0}});
  EXPECT_EQ(v.ByteSize(), 2 * (sizeof(uint32_t) + sizeof(double)));
}

}  // namespace
}  // namespace cdpipe

#include "src/linalg/dense_vector.h"

#include <gtest/gtest.h>

namespace cdpipe {
namespace {

TEST(DenseVectorTest, ConstructionAndAccess) {
  DenseVector v(4, 1.5);
  EXPECT_EQ(v.dim(), 4u);
  EXPECT_FALSE(v.empty());
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(v[i], 1.5);
  v[2] = -3.0;
  EXPECT_DOUBLE_EQ(v[2], -3.0);
}

TEST(DenseVectorTest, FromValues) {
  DenseVector v(std::vector<double>{1, 2, 3});
  EXPECT_EQ(v.dim(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(DenseVectorTest, ResizeZeroFills) {
  DenseVector v(std::vector<double>{1, 2});
  v.Resize(4);
  EXPECT_EQ(v.dim(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

TEST(DenseVectorTest, AxpyDense) {
  DenseVector v(std::vector<double>{1, 2, 3});
  DenseVector u(std::vector<double>{1, 1, 1});
  v.Axpy(2.0, u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 4.0);
  EXPECT_DOUBLE_EQ(v[2], 5.0);
}

TEST(DenseVectorTest, Norms) {
  DenseVector v(std::vector<double>{3, -4});
  EXPECT_DOUBLE_EQ(v.L2NormSquared(), 25.0);
  EXPECT_DOUBLE_EQ(v.L2Norm(), 5.0);
}

TEST(DenseVectorTest, ByteSize) {
  DenseVector v(10);
  EXPECT_EQ(v.ByteSize(), 80u);
}

}  // namespace
}  // namespace cdpipe

#include "tensor/matrix.hpp"

#include <gtest/gtest.h>

namespace fedra {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(m[i], 0.0);
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 7.5);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(m[i], 7.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
}

TEST(Matrix, RowMajorIndexing) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[3], 4.0);
  EXPECT_DOUBLE_EQ(m[5], 6.0);
}

TEST(Matrix, RowSpanViewsAndMutates) {
  Matrix m(2, 3);
  auto row = m.row(1);
  ASSERT_EQ(row.size(), 3u);
  row[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(Matrix, RowAndColVectors) {
  std::vector<double> v{1.0, 2.0, 3.0};
  auto r = Matrix::row_vector(v);
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  auto c = Matrix::col_vector(v);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(2, 0), 3.0);
}

TEST(Matrix, Identity) {
  auto id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, RandomUniformWithinBounds) {
  Rng rng(1);
  auto m = Matrix::random_uniform(10, 10, rng, -0.5, 0.5);
  for (double x : m.flat()) {
    EXPECT_GE(x, -0.5);
    EXPECT_LT(x, 0.5);
  }
}

TEST(Matrix, RandomGaussianDeterministicBySeed) {
  Rng a(7), b(7);
  auto ma = Matrix::random_gaussian(4, 4, a);
  auto mb = Matrix::random_gaussian(4, 4, b);
  EXPECT_EQ(ma, mb);
}

TEST(Matrix, AddSubInPlace) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{10.0, 20.0}, {30.0, 40.0}};
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 44.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
}

TEST(Matrix, ScalarScale) {
  Matrix a{{1.0, -2.0}};
  a *= -2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 4.0);
}

TEST(Matrix, SameShape) {
  Matrix a(2, 3), b(2, 3), c(3, 2);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Matrix, EqualityIncludesShape) {
  Matrix a(2, 3, 1.0);
  Matrix b(3, 2, 1.0);
  EXPECT_FALSE(a == b);
  Matrix c(2, 3, 1.0);
  EXPECT_TRUE(a == c);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2, 5.0);
  m.set_zero();
  for (double x : m.flat()) EXPECT_DOUBLE_EQ(x, 0.0);
  m.fill(3.0);
  for (double x : m.flat()) EXPECT_DOUBLE_EQ(x, 3.0);
}

using MatrixDeath = Matrix;

TEST(MatrixDeathTest, OutOfBoundsAborts) {
  Matrix m(2, 2);
  EXPECT_DEATH((void)m(2, 0), "precondition");
  EXPECT_DEATH((void)m(0, 2), "precondition");
}

TEST(MatrixDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_DEATH(a += b, "precondition");
}

TEST(Matrix, ResizeReuseKeepsCapacityAndBlock) {
  Matrix m(8, 8, 1.0);
  const double* block = m.data();
  const std::size_t cap = m.capacity();
  EXPECT_GE(cap, 64u);

  m.resize_reuse(4, 5);  // shrink: same heap block
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.data(), block);
  EXPECT_EQ(m.capacity(), cap);

  m.resize_reuse(8, 8);  // grow back within capacity: same block
  EXPECT_EQ(m.data(), block);

  m.resize_reuse(16, 16);  // beyond capacity: must actually grow
  EXPECT_EQ(m.size(), 256u);
  EXPECT_GE(m.capacity(), 256u);
}

TEST(Matrix, AssignFromReusesCapacity) {
  Matrix src(3, 4);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<double>(i) * 0.25;
  }
  Matrix dst(10, 10);  // larger capacity than src needs
  const double* block = dst.data();
  dst.assign_from(src);
  EXPECT_EQ(dst.rows(), 3u);
  EXPECT_EQ(dst.cols(), 4u);
  EXPECT_EQ(dst.data(), block);
  EXPECT_TRUE(dst == src);

  dst.assign_from(dst);  // self-assign is a no-op
  EXPECT_TRUE(dst == src);
}

TEST(Matrix, ReleaseDropsHeapBlock) {
  Matrix m(6, 6, 2.0);
  m.release();
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.capacity(), 0u);
}

TEST(Matrix, AllocStatsTrackTensorHeapOnly) {
  const TensorAllocStats before = tensor_alloc_stats();
  Matrix m(16, 16);
  const TensorAllocStats after_alloc = tensor_alloc_stats();
  EXPECT_GE(after_alloc.bytes - before.bytes, 16u * 16u * sizeof(double));
  EXPECT_GE(after_alloc.allocs, before.allocs + 1);

  // Capacity-reusing operations must not move the counters.
  m.resize_reuse(4, 4);
  m.resize_reuse(16, 16);
  m.set_zero();
  const TensorAllocStats after_reuse = tensor_alloc_stats();
  EXPECT_EQ(after_reuse.bytes, after_alloc.bytes);
  EXPECT_EQ(after_reuse.allocs, after_alloc.allocs);
}

}  // namespace
}  // namespace fedra

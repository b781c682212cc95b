#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fedra {
namespace {

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Ops, MatmulSmallKnown) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  auto c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Ops, MatmulIdentity) {
  Rng rng(2);
  auto a = Matrix::random_gaussian(5, 5, rng);
  EXPECT_LT(max_abs_diff(matmul(a, Matrix::identity(5)), a), 1e-14);
  EXPECT_LT(max_abs_diff(matmul(Matrix::identity(5), a), a), 1e-14);
}

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapes, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  auto a = Matrix::random_gaussian(m, k, rng);
  auto b = Matrix::random_gaussian(k, n, rng);
  EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-10);
}

TEST_P(MatmulShapes, TransposedVariantsConsistent) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + k * 11 + n * 13));
  // A^T * B for a (k x m) A, against matmul of A^T written out.
  const auto a = Matrix::random_gaussian(k, m, rng);
  const auto b = Matrix::random_gaussian(k, n, rng);
  Matrix at(m, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < m; ++j) at(j, i) = a(i, j);
  }
  Matrix c;
  matmul_at_b_into(a, b, c);
  EXPECT_LT(max_abs_diff(c, matmul(at, b)), 1e-10);
  // A * B^T for an (n x k) B, against matmul of B^T written out.
  const auto bn = Matrix::random_gaussian(n, k, rng);
  Matrix bnt(k, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) bnt(j, i) = bn(i, j);
  }
  matmul_a_bt_into(at, bn, c);
  EXPECT_LT(max_abs_diff(c, matmul(at, bnt)), 1e-10);
}

TEST_P(MatmulShapes, ParallelEqualsSerial) {
  // Row blocks of C multiplied on pool workers match the whole product
  // bitwise, although a short block may take a different GEMM route than
  // the full-height product.
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + k + n));
  auto a = Matrix::random_gaussian(m, k, rng);
  auto b = Matrix::random_gaussian(k, n, rng);
  Matrix blocks(m, n);
  ThreadPool pool(3);
  pool.parallel_for_chunks(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    Matrix rows(hi - lo, a.cols());
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) rows(i - lo, j) = a(i, j);
    }
    const Matrix part = matmul(rows, b);
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        blocks(i, j) = part(i - lo, j);
      }
    }
  });
  EXPECT_EQ(blocks, matmul(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(5, 1, 5), std::make_tuple(8, 8, 8),
                      std::make_tuple(17, 31, 13), std::make_tuple(64, 3, 64),
                      std::make_tuple(70, 70, 70)));

TEST(Ops, Axpy) {
  Matrix x{{1.0, 2.0}};
  Matrix y{{10.0, 20.0}};
  axpy(0.5, x, y);
  EXPECT_DOUBLE_EQ(y(0, 0), 10.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 21.0);
}

TEST(Ops, AddRowBroadcast) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix bias{{10.0, 20.0}};
  add_row_broadcast(a, bias);
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 24.0);
}

TEST(Ops, Reductions) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix cs;
  col_sum_into(a, cs);
  ASSERT_EQ(cs.rows(), 1u);
  EXPECT_DOUBLE_EQ(cs(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(cs(0, 1), 6.0);
}

TEST(Ops, ArgmaxRow) {
  Matrix a{{1.0, 5.0, 3.0}, {9.0, 2.0, 9.0}};
  EXPECT_EQ(argmax_row(a, 0), 1u);
  EXPECT_EQ(argmax_row(a, 1), 0u);  // first max wins
}

TEST(Ops, MaxAbsDiff) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

TEST(OpsDeathTest, IncompatibleShapesAbort) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_DEATH((void)matmul(a, b), "precondition");
}

}  // namespace
}  // namespace fedra

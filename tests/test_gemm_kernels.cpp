// Property tests for the blocked GEMM kernels: BITWISE equality against
// the naive ascending-k reference loops, over shapes chosen to straddle
// every tiling boundary (register tiles, the direct path for products
// with no full tile, the KC/NC cache blocks) and over operands containing
// NaN/inf/subnormals (operator== would pass NaN mismatches silently, so
// elements are compared through their bit patterns).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

/// Bitwise equality with one deliberate carve-out: any NaN equals any
/// NaN. Finite values (including signed zeros and subnormals) and
/// infinities must match bit-for-bit — that is what operator== cannot
/// check (NaN != NaN would let a silently-dropped term pass). NaN
/// payload/sign is NOT required to match: which payload survives an
/// accumulation is unspecified by IEEE-754 (x86 keeps the first operand's,
/// and the compiler may commute mul/add), so two correct kernels can
/// legitimately disagree on it. The property that matters — NaN appears
/// exactly where the reference puts one (the seed's zero-skip produced 0
/// instead) — is still enforced.
::testing::AssertionResult bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    const auto lhs = std::bit_cast<std::uint64_t>(a[i]);
    const auto rhs = std::bit_cast<std::uint64_t>(b[i]);
    if (lhs != rhs) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " (0x" << std::hex << lhs
             << ") vs " << b[i] << " (0x" << rhs << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

struct Shape {
  std::size_t m, k, n;
};

// Degenerate edges, primes, and sizes that straddle the 4/8-wide register
// tiles and the KC=128 / NC=256 cache blocks.
const std::vector<Shape> kShapes = {
    {1, 1, 1},    {1, 1, 7},    {7, 1, 1},     {1, 13, 1},
    {1, 5, 64},   {64, 5, 1},   {9, 9, 9},     {13, 17, 11},
    {31, 37, 29}, {8, 8, 8},    {16, 16, 16},  {65, 64, 63},
    {33, 129, 31},              // k straddles the KC=128 block
    {17, 23, 257},              // n straddles the NC=256 block
    {129, 129, 129},            // everything straddles something
    // Either side of the direct-path rule (m < MR or n < NR, for the
    // 8x8, 4x8 and 4x4 tiers), with the PPO head and batch-1 shapes.
    {7, 27, 64},  {8, 27, 7},   {8, 27, 8},    {3, 27, 8},
    {4, 27, 4},   {64, 64, 3},  {64, 64, 1},
    {1, 450, 50},               // batch-1 scale actor; k crosses KC
    {3, 129, 67},
};

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.uniform(-2.0, 2.0);
  }
  return m;
}

/// Sprinkles adversarial values (NaN, +/-inf, subnormals, signed zeros)
/// over ~1/8 of the entries.
void poison(Matrix& m, Rng& rng) {
  constexpr double kSpecials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4.0,  // subnormal
      0.0,
      -0.0,
  };
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (rng.uniform_int(0, 7) == 0) {
      m[i] = kSpecials[static_cast<std::size_t>(rng.uniform_int(0, 7))];
    }
  }
}

Matrix at_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_b_into(a, b, c);
  return c;
}

Matrix a_bt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_a_bt_into(a, b, c);
  return c;
}

TEST(GemmKernels, MatmulBitwiseMatchesReference) {
  Rng rng(101);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    EXPECT_TRUE(bitwise_equal(matmul(a, b), matmul_reference(a, b)))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernels, MatmulAtBBitwiseMatchesReference) {
  Rng rng(102);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.k, s.m, rng);  // C = A^T B is m x n
    const Matrix b = random_matrix(s.k, s.n, rng);
    EXPECT_TRUE(bitwise_equal(at_b(a, b), matmul_at_b_reference(a, b)))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernels, MatmulABtBitwiseMatchesReference) {
  Rng rng(103);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);  // C = A B^T is m x n
    const Matrix b = random_matrix(s.n, s.k, rng);
    EXPECT_TRUE(bitwise_equal(a_bt(a, b), matmul_a_bt_reference(a, b)))
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernels, NonFiniteOperandsPropagateIdentically) {
  // The seed kernel's zero-skip would turn 0 * NaN into 0; the blocked
  // kernels and the references must agree on full IEEE propagation —
  // including through the SIMD microkernels, whose unfused mul/add must
  // round (and propagate NaN payloads) exactly like scalar code.
  Rng rng(104);
  for (const auto& s : kShapes) {
    Matrix a = random_matrix(s.m, s.k, rng);
    Matrix b = random_matrix(s.k, s.n, rng);
    poison(a, rng);
    poison(b, rng);
    EXPECT_TRUE(bitwise_equal(matmul(a, b), matmul_reference(a, b)))
        << "matmul " << s.m << "x" << s.k << "x" << s.n;

    Matrix bt = random_matrix(s.n, s.k, rng);
    poison(bt, rng);
    EXPECT_TRUE(bitwise_equal(a_bt(a, bt), matmul_a_bt_reference(a, bt)))
        << "a_bt " << s.m << "x" << s.k << "x" << s.n;

    Matrix at = random_matrix(s.k, s.m, rng);
    poison(at, rng);
    EXPECT_TRUE(bitwise_equal(at_b(at, b), matmul_at_b_reference(at, b)))
        << "at_b " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernels, IntoVariantsReuseCapacity) {
  Rng rng(106);
  const Matrix big_a = random_matrix(64, 48, rng);
  const Matrix big_b = random_matrix(48, 56, rng);
  const Matrix small_a = random_matrix(9, 13, rng);
  const Matrix small_b = random_matrix(13, 11, rng);
  const Matrix bt = random_matrix(56, 48, rng);      // a_bt: cols match big_a
  const Matrix tall_b = random_matrix(64, 56, rng);  // at_b: rows match big_a
  Matrix c;
  matmul_into(big_a, big_b, c);  // first call sizes the buffer (64x56)
  const double* block = c.data();

  // Steady state: smaller and equal shapes must reuse the heap block and
  // perform zero tracked allocations.
  const TensorAllocStats before = tensor_alloc_stats();
  matmul_into(small_a, small_b, c);
  matmul_into(big_a, big_b, c);
  matmul_at_b_into(big_a, tall_b, c);  // 48x56 result
  matmul_a_bt_into(big_a, bt, c);      // 64x56 result
  const TensorAllocStats after = tensor_alloc_stats();
  EXPECT_EQ(after.bytes, before.bytes)
      << "into-variants allocated despite sufficient capacity";
  EXPECT_EQ(c.data(), block);

  // And the reused buffers still hold bit-exact results.
  matmul_into(small_a, small_b, c);
  EXPECT_TRUE(bitwise_equal(c, matmul_reference(small_a, small_b)));
  matmul_at_b_into(big_a, tall_b, c);
  EXPECT_TRUE(bitwise_equal(c, matmul_at_b_reference(big_a, tall_b)));
  matmul_a_bt_into(big_a, bt, c);
  EXPECT_TRUE(bitwise_equal(c, matmul_a_bt_reference(big_a, bt)));
}

TEST(GemmKernels, ColSumIntoMatchesColSum) {
  // Each column sum accumulates the rows in ascending order from +0.0.
  Rng rng(108);
  Matrix a = random_matrix(17, 29, rng);
  poison(a, rng);
  Matrix want(1, a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) want(0, j) += a(i, j);
  }
  Matrix s;
  col_sum_into(a, s);
  EXPECT_TRUE(bitwise_equal(s, want));
}

}  // namespace
}  // namespace fedra

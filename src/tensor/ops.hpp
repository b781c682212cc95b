// Matrix kernels: blocked GEMM, transposed products, axpy, the bias
// broadcast and column sum of the dense layer, and test helpers.
//
// GEMM kernels are cache-blocked and register-tiled but BIT-EXACT with the
// naive triple loop: every output element accumulates its k terms in
// ascending-k order from a +0.0 start, and tiling only regroups (i, j)
// work, never the per-element reduction. The naive kernels are retained as
// `*_reference` oracles for the property tests and as the bench baseline.
//
// `_into` variants write into a caller-owned output, reusing its heap
// block when capacity suffices — the allocation-free path the nn/
// workspaces build on. A row of C depends only on its own row of A (or
// column, for A^T*B) and all of B, so any row partition of a product
// produces bit-identical output.
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

namespace fedra {

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

// Allocation-free variants: `c` is re-dimensioned with capacity reuse and
// fully overwritten. `c` must not alias `a` or `b`. The transposed
// products read A^T or B^T in place, without materializing them.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);
/// C = A^T * B.
void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c);
/// C = A * B^T.
void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c);

// Reference kernels: the naive ascending-k triple loops the blocked
// kernels must match bit-for-bit (including NaN/inf propagation — no
// zero-skip shortcuts). Used by tests as the oracle and by bench_gemm as
// the seed-scalar baseline.
Matrix matmul_reference(const Matrix& a, const Matrix& b);
Matrix matmul_at_b_reference(const Matrix& a, const Matrix& b);
Matrix matmul_a_bt_reference(const Matrix& a, const Matrix& b);

/// y = a*x + y (in place on y), the axpy BLAS idiom used by optimizers.
void axpy(double a, const Matrix& x, Matrix& y);

/// Adds row vector `bias` (1 x cols) to every row of `a` in place.
void add_row_broadcast(Matrix& a, const Matrix& bias);

/// Column-wise sum into `s` (re-dimensioned to 1 x cols, capacity reused).
void col_sum_into(const Matrix& a, Matrix& s);

/// Index of the maximum element in row r.
std::size_t argmax_row(const Matrix& a, std::size_t r);

/// Max absolute difference between two same-shaped matrices.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace fedra

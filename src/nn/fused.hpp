// Fused / vectorized elementwise kernels for the NN training hot path.
//
//  * Transcendentals: tanh/sigmoid/softmax-exp are evaluated by a shared
//    polynomial operation DAG (explicit mul-then-add, no FMA contraction).
//    tanh, the one a benchmark workload spends real time in, runs it with
//    runtime AVX-512F / AVX2 / scalar dispatch; the three tiers execute the
//    SAME per-element operation sequence, so results are bit-identical
//    across tiers and across any batch composition. exp and sigmoid run
//    the scalar DAG in a plain loop. None is bit-identical to libm
//    (absolute error < ~1e-15, checked by tests/test_fused_kernels.cpp);
//    the goldens are recorded with them.
//
//  * Pass fusion: Sequential's cached passes run dense+bias+activation
//    forward in one sweep, and fuse the dGrad·dAct derivative map with
//    the bias-gradient column sum on backward. Fusion only regroups
//    traversals, never the per-element arithmetic, so it is bit-identical
//    to running the layers one by one (tests/test_workspace.cpp checks
//    the cached passes against that per-layer loop).
//
// ReLU-family maps and the pure-arithmetic derivative maps are plain
// scalar loops; test_fused_kernels pins their NaN, signed-zero and
// denormal results bit for bit.
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

namespace fedra {

/// Activation kinds the pass-fusion engine understands. Only
/// output-derivative activations qualify: their backward reads the
/// activation OUTPUT y, so the fused forward never needs to keep the
/// pre-activation alive (ReLU-family backward reads the input x and has
/// different NaN semantics through y, so it stays on the unfused path).
enum class FusedAct { Tanh, Sigmoid };

// ---------------------------------------------------------------------------
// Transcendental maps (in-place allowed, i.e. out may equal x). Each has a
// scalar `_reference` executing the identical operation DAG per element;
// fast_tanh_map dispatches to AVX-512F / AVX2 tiers that must match it
// bit-for-bit, the others are plain loops over it.
// ---------------------------------------------------------------------------

/// Saturating exp: the argument is clamped to [-745, 709] (full double
/// range of finite exp results), so the map never produces inf from
/// finite input. NaN propagates.
void fast_exp_map(const double* x, double* out, std::size_t n);
double fast_exp_reference(double x);

void fast_tanh_map(const double* x, double* out, std::size_t n);
double fast_tanh_reference(double x);

void fast_sigmoid_map(const double* x, double* out, std::size_t n);
double fast_sigmoid_reference(double x);

// ---------------------------------------------------------------------------
// ReLU-family forward maps and activation derivative maps (plain loops).
// ---------------------------------------------------------------------------

/// out[i] = x[i] > 0 ? x[i] : 0, so NaN and -0.0 map to +0.0.
void relu_map(const double* x, double* out, std::size_t n);

/// out[i] = x[i] > 0 ? x[i] : slope * x[i], so NaN stays NaN and -0.0
/// stays -0.0.
void leaky_relu_map(const double* x, double slope, double* out,
                    std::size_t n);

/// grad_in[i] = g[i] for x[i] > 0 (or NaN), else 0 — the ReLU backward.
void relu_backward_map(const double* g, const double* x, double* grad_in,
                       std::size_t n);

/// grad_in[i] = g[i] for x[i] > 0 (or NaN), else slope * g[i].
void leaky_relu_backward_map(const double* g, const double* x, double slope,
                             double* grad_in, std::size_t n);

/// grad_in[i] = g[i] * (1 - y[i]*y[i]) — tanh derivative from the output.
void tanh_backward_map(const double* g, const double* y, double* grad_in,
                       std::size_t n);

/// grad_in[i] = g[i] * (y[i] * (1 - y[i])) — sigmoid derivative.
void sigmoid_backward_map(const double* g, const double* y, double* grad_in,
                          std::size_t n);

// ---------------------------------------------------------------------------
// Fused passes (Sequential workspace path).
// ---------------------------------------------------------------------------

/// out = act(pre + bias), one sweep: the bias broadcast is folded into
/// the activation pass instead of mutating `pre` in place first.
/// Bit-identical to add_row_broadcast + the activation's forward map
/// (same two ops per element, in the same order). `bias` is 1 x cols;
/// `out` must not alias `pre`.
void bias_act_into(const Matrix& pre, const Matrix& bias, FusedAct act,
                   Matrix& out);
void bias_act_into_reference(const Matrix& pre, const Matrix& bias,
                             FusedAct act, Matrix& out);

/// dpre = g ⊙ act'(y) and colsum[j] = Σ_i dpre(i, j) in one traversal.
/// Bit-identical to the activation's backward map (tanh_backward_map /
/// sigmoid_backward_map) followed by col_sum_into: the same per-element
/// arithmetic, and column sums accumulate rows in ascending order exactly
/// as col_sum_into does. `colsum` is re-dimensioned to 1 x cols.
void act_backward_colsum_into(const Matrix& g, const Matrix& y, FusedAct act,
                              Matrix& dpre, Matrix& colsum);

}  // namespace fedra

#include "nn/fused.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define FEDRA_FUSED_X86_SIMD 1
#include <immintrin.h>
#else
#define FEDRA_FUSED_X86_SIMD 0
#endif

namespace fedra {

// Only fast_tanh_map has hand-written SIMD tiers: it is the one map a
// benchmark workload spends real time in (the paper's nets are tanh MLPs).
// Every other map here is a plain loop over the scalar arithmetic. The tanh
// discipline mirrors tensor/ops.cpp: the repo builds for baseline x86-64,
// the tiers are per-function target("avx2") / target("avx512f") bodies
// selected once via __builtin_cpu_supports, and every product that feeds
// an add carries an empty asm barrier so the compiler cannot contract
// mul+add into FMA (one rounding instead of two would silently split the
// tiers bitwise). SIMD bodies process only whole vectors; the baseline-ISA
// wrapper runs the scalar reference over the tail, so tail elements can
// never pick up contracted code by inlining into a wider-target function.

namespace {

// ---------------------------------------------------------------------------
// The shared saturating-exp operation DAG. Every tanh tier and the scalar
// exp/sigmoid maps execute, per element:
//   clamp -> x*log2(e) -> magic-number round-to-nearest -> two-term
//   Cody-Waite reduction r = x - n*ln2 -> degree-12 Horner polynomial ->
//   scale by 2^n in two halves (n1 = n>>1, n2 = n-n1) assembled from raw
//   exponent bits.
// The two-half scaling keeps every 2^k factor a normal number for the
// whole clamped range (n in [-1075, 1023]), so even results that underflow
// to denormals round identically everywhere.
// ---------------------------------------------------------------------------

constexpr double kExpLo = -745.0;  ///< exp underflows to 0 just below
constexpr double kExpHi = 709.0;   ///< exp overflows to inf just above
constexpr double kLog2e = 1.4426950408889634074;
constexpr double kMagic = 6755399441055744.0;  // 2^52 + 2^51
// Cody-Waite ln2 split; the head has 21 trailing zero bits, so n*kLn2Hi is
// exact for |n| <= 2^20 and the reduction loses nothing.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// exp(r) for |r| <= ln2/2 as the degree-12 Taylor polynomial (truncation
// error ~2e-16 relative, below one ulp), evaluated in Horner order.
constexpr double kExpC[13] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
};
constexpr double kTanhSat = 19.0625;  ///< tanh(x) rounds to 1.0 beyond this
constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/// 2^k from raw exponent bits; k in [-538, 512] is always a normal number.
inline double exp2k(int k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
}

/// exp(clamp(x)) for non-NaN x (NaN lanes are blended out by callers).
inline double exp_core_scalar(double x) {
  double xc = x < kExpLo ? kExpLo : x;
  xc = xc > kExpHi ? kExpHi : xc;
  const double t = xc * kLog2e;
  const double tm = t + kMagic;
  const double nd = tm - kMagic;  // round-to-nearest-even integer
  const int n = static_cast<int>(nd);
  double r = xc - nd * kLn2Hi;
  r = r - nd * kLn2Lo;
  double p = kExpC[12];
  for (int k = 11; k >= 0; --k) p = p * r + kExpC[k];
  const int n1 = n >> 1;
  const int n2 = n - n1;
  return (p * exp2k(n1)) * exp2k(n2);
}

inline double tanh_core_scalar(double x) {
  const double a = std::fabs(x);
  const double e = exp_core_scalar(2.0 * a);
  const double t = (e - 1.0) / (e + 1.0);
  const double sat = a > kTanhSat ? 1.0 : t;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(sat) |
                               (std::bit_cast<std::uint64_t>(x) & kSignBit));
}

inline double sigmoid_core_scalar(double x) {
  const double a = std::fabs(x);
  const double e = exp_core_scalar(-a);
  const double d = 1.0 + e;
  return x < 0.0 ? e / d : 1.0 / d;
}

#if FEDRA_FUSED_X86_SIMD

// --- AVX2 tier (4 lanes) ---------------------------------------------------

__attribute__((target("avx2"))) inline __m256d exp_core_avx2(__m256d x) {
  const __m256d xc = _mm256_min_pd(
      _mm256_max_pd(x, _mm256_set1_pd(kExpLo)), _mm256_set1_pd(kExpHi));
  __m256d t = _mm256_mul_pd(xc, _mm256_set1_pd(kLog2e));
  __asm__("" : "+x"(t));  // keep mul/add unfused
  const __m256d magic = _mm256_set1_pd(kMagic);
  const __m256d tm = _mm256_add_pd(t, magic);
  const __m256d nd = _mm256_sub_pd(tm, magic);
  const __m128i n = _mm256_cvttpd_epi32(nd);
  __m256d h = _mm256_mul_pd(nd, _mm256_set1_pd(kLn2Hi));
  __asm__("" : "+x"(h));
  __m256d r = _mm256_sub_pd(xc, h);
  __m256d l = _mm256_mul_pd(nd, _mm256_set1_pd(kLn2Lo));
  __asm__("" : "+x"(l));
  r = _mm256_sub_pd(r, l);
  __m256d p = _mm256_set1_pd(kExpC[12]);
  for (int k = 11; k >= 0; --k) {
    __m256d q = _mm256_mul_pd(p, r);
    __asm__("" : "+x"(q));
    p = _mm256_add_pd(q, _mm256_set1_pd(kExpC[k]));
  }
  const __m128i n1 = _mm_srai_epi32(n, 1);
  const __m128i n2 = _mm_sub_epi32(n, n1);
  const __m256i bias = _mm256_set1_epi64x(1023);
  const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(n1), bias), 52));
  const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(n2), bias), 52));
  return _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
}

__attribute__((target("avx2"))) std::size_t tanh_bulk_avx2(const double* x,
                                                           double* out,
                                                           std::size_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d a = _mm256_andnot_pd(sign_mask, v);
    const __m256d e = exp_core_avx2(_mm256_mul_pd(a, _mm256_set1_pd(2.0)));
    __m256d t = _mm256_div_pd(_mm256_sub_pd(e, one), _mm256_add_pd(e, one));
    t = _mm256_blendv_pd(
        t, one, _mm256_cmp_pd(a, _mm256_set1_pd(kTanhSat), _CMP_GT_OQ));
    t = _mm256_or_pd(t, _mm256_and_pd(v, sign_mask));
    t = _mm256_blendv_pd(t, v, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    _mm256_storeu_pd(out + i, t);
  }
  return i;
}

// --- AVX-512F tier (8 lanes) -----------------------------------------------

// GCC's AVX-512 intrinsics pass _mm512_undefined_*() as the masked-off
// source, tripping -Wmaybe-uninitialized when inlined here even though
// every lane is selected (the same false positive as in
// sim/fleet_pricing.cpp).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Bitwise double ops in the integer domain: the _pd forms are AVX-512DQ,
// which the avx512f dispatch gate does not check for.
__attribute__((target("avx512f"))) inline __m512d and512(__m512d a,
                                                         __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_and_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}
__attribute__((target("avx512f"))) inline __m512d andnot512(__m512d a,
                                                            __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_andnot_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}
__attribute__((target("avx512f"))) inline __m512d or512(__m512d a,
                                                        __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_or_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}

__attribute__((target("avx512f"))) inline __m512d exp_core_avx512(__m512d x) {
  const __m512d xc = _mm512_min_pd(
      _mm512_max_pd(x, _mm512_set1_pd(kExpLo)), _mm512_set1_pd(kExpHi));
  __m512d t = _mm512_mul_pd(xc, _mm512_set1_pd(kLog2e));
  __asm__("" : "+v"(t));  // keep mul/add unfused
  const __m512d magic = _mm512_set1_pd(kMagic);
  const __m512d tm = _mm512_add_pd(t, magic);
  const __m512d nd = _mm512_sub_pd(tm, magic);
  const __m256i n = _mm512_cvttpd_epi32(nd);
  __m512d h = _mm512_mul_pd(nd, _mm512_set1_pd(kLn2Hi));
  __asm__("" : "+v"(h));
  __m512d r = _mm512_sub_pd(xc, h);
  __m512d l = _mm512_mul_pd(nd, _mm512_set1_pd(kLn2Lo));
  __asm__("" : "+v"(l));
  r = _mm512_sub_pd(r, l);
  __m512d p = _mm512_set1_pd(kExpC[12]);
  for (int k = 11; k >= 0; --k) {
    __m512d q = _mm512_mul_pd(p, r);
    __asm__("" : "+v"(q));
    p = _mm512_add_pd(q, _mm512_set1_pd(kExpC[k]));
  }
  const __m256i n1 = _mm256_srai_epi32(n, 1);
  const __m256i n2 = _mm256_sub_epi32(n, n1);
  const __m512i bias = _mm512_set1_epi64(1023);
  const __m512d s1 = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_add_epi64(_mm512_cvtepi32_epi64(n1), bias), 52));
  const __m512d s2 = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_add_epi64(_mm512_cvtepi32_epi64(n2), bias), 52));
  return _mm512_mul_pd(_mm512_mul_pd(p, s1), s2);
}

__attribute__((target("avx512f"))) std::size_t tanh_bulk_avx512(
    const double* x, double* out, std::size_t n) {
  const __m512d sign_mask = _mm512_set1_pd(-0.0);
  const __m512d one = _mm512_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(x + i);
    const __m512d a = andnot512(sign_mask, v);
    const __m512d e = exp_core_avx512(_mm512_mul_pd(a, _mm512_set1_pd(2.0)));
    __m512d t = _mm512_div_pd(_mm512_sub_pd(e, one), _mm512_add_pd(e, one));
    t = _mm512_mask_mov_pd(
        t, _mm512_cmp_pd_mask(a, _mm512_set1_pd(kTanhSat), _CMP_GT_OQ), one);
    t = or512(t, and512(v, sign_mask));
    t = _mm512_mask_mov_pd(t, _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q), v);
    _mm512_storeu_pd(out + i, t);
  }
  return i;
}

#pragma GCC diagnostic pop

#endif  // FEDRA_FUSED_X86_SIMD

/// Bulk tanh body: processes a prefix of whole vectors and returns its
/// length; fast_tanh_map finishes the rest with the scalar reference.
using TanhBulkFn = std::size_t (*)(const double*, double*, std::size_t);

std::size_t tanh_bulk_none(const double*, double*, std::size_t) { return 0; }

TanhBulkFn select_tanh_bulk() {
#if FEDRA_FUSED_X86_SIMD
  if (__builtin_cpu_supports("avx512f")) return &tanh_bulk_avx512;
  if (__builtin_cpu_supports("avx2")) return &tanh_bulk_avx2;
#endif
  return &tanh_bulk_none;
}

}  // namespace

double fast_exp_reference(double x) {
  if (x != x) return x;
  return exp_core_scalar(x);
}

double fast_tanh_reference(double x) {
  if (x != x) return x;
  return tanh_core_scalar(x);
}

double fast_sigmoid_reference(double x) {
  if (x != x) return x;
  return sigmoid_core_scalar(x);
}

void fast_exp_map(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fast_exp_reference(x[i]);
}

void fast_tanh_map(const double* x, double* out, std::size_t n) {
  static const TanhBulkFn bulk = select_tanh_bulk();
  for (std::size_t i = bulk(x, out, n); i < n; ++i) {
    out[i] = fast_tanh_reference(x[i]);
  }
}

void fast_sigmoid_map(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fast_sigmoid_reference(x[i]);
}

void relu_map(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0 ? x[i] : 0.0;
  }
}

void leaky_relu_map(const double* x, double slope, double* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0 ? x[i] : slope * x[i];
  }
}

void relu_backward_map(const double* g, const double* x, double* grad_in,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = x[i] <= 0.0 ? 0.0 : g[i];
  }
}

void leaky_relu_backward_map(const double* g, const double* x, double slope,
                             double* grad_in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = x[i] <= 0.0 ? slope * g[i] : g[i];
  }
}

void tanh_backward_map(const double* g, const double* y, double* grad_in,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = g[i] * (1.0 - y[i] * y[i]);
  }
}

void sigmoid_backward_map(const double* g, const double* y, double* grad_in,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = g[i] * (y[i] * (1.0 - y[i]));
  }
}

// ---------------------------------------------------------------------------
// Fused passes.
// ---------------------------------------------------------------------------

namespace {

void act_apply(FusedAct act, const double* x, double* out, std::size_t n) {
  if (act == FusedAct::Tanh) {
    fast_tanh_map(x, out, n);
  } else {
    fast_sigmoid_map(x, out, n);
  }
}

/// Scalar-only variant of act_apply for bias_act_into_reference.
void act_apply_reference(FusedAct act, const double* x, double* out,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = act == FusedAct::Tanh ? fast_tanh_reference(x[i])
                                   : fast_sigmoid_reference(x[i]);
  }
}

// Fused backward row kernels: dpre and the running column sum in one
// sweep, each element the same arithmetic as the activation's backward
// map. Row-ascending accumulation into cs matches col_sum_into.

void tanh_bwd_row(const double* g, const double* y, double* d, double* cs,
                  std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = g[j] * (1.0 - y[j] * y[j]);
    d[j] = v;
    cs[j] += v;
  }
}

void sigmoid_bwd_row(const double* g, const double* y, double* d, double* cs,
                     std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = g[j] * (y[j] * (1.0 - y[j]));
    d[j] = v;
    cs[j] += v;
  }
}

}  // namespace

void bias_act_into(const Matrix& pre, const Matrix& bias, FusedAct act,
                   Matrix& out) {
  FEDRA_EXPECTS(&out != &pre);
  FEDRA_EXPECTS(bias.rows() == 1 && bias.cols() == pre.cols());
  out.resize_reuse(pre.rows(), pre.cols());
  const std::size_t cols = pre.cols();
  const double* b = bias.data();
  for (std::size_t i = 0; i < pre.rows(); ++i) {
    const double* p = pre.data() + i * cols;
    double* o = out.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) o[j] = p[j] + b[j];
  }
  act_apply(act, out.data(), out.data(), out.size());
}

void bias_act_into_reference(const Matrix& pre, const Matrix& bias,
                             FusedAct act, Matrix& out) {
  FEDRA_EXPECTS(&out != &pre);
  FEDRA_EXPECTS(bias.rows() == 1 && bias.cols() == pre.cols());
  out.resize_reuse(pre.rows(), pre.cols());
  const std::size_t cols = pre.cols();
  const double* b = bias.data();
  for (std::size_t i = 0; i < pre.rows(); ++i) {
    const double* p = pre.data() + i * cols;
    double* o = out.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) o[j] = p[j] + b[j];
  }
  act_apply_reference(act, out.data(), out.data(), out.size());
}

void act_backward_colsum_into(const Matrix& g, const Matrix& y, FusedAct act,
                              Matrix& dpre, Matrix& colsum) {
  FEDRA_EXPECTS(g.same_shape(y));
  dpre.resize_reuse(y.rows(), y.cols());
  colsum.resize_reuse(1, y.cols());
  colsum.set_zero();
  const auto row = act == FusedAct::Tanh ? &tanh_bwd_row : &sigmoid_bwd_row;
  const std::size_t cols = y.cols();
  double* cs = colsum.data();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    row(g.data() + i * cols, y.data() + i * cols, dpre.data() + i * cols, cs,
        cols);
  }
}

}  // namespace fedra

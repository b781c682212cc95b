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

// The dispatch discipline mirrors tensor/ops.cpp: the repo builds for
// baseline x86-64, SIMD tiers are per-function target("avx2") /
// target("avx512f") bodies selected once via __builtin_cpu_supports, and
// every product that feeds an add carries an empty asm barrier so the
// compiler cannot contract mul+add into FMA (one rounding instead of two
// would silently split the tiers bitwise). SIMD bodies process only whole
// vectors; the baseline-ISA wrapper runs the scalar reference over the
// tail, so tail elements can never pick up contracted code by inlining
// into a wider-target function.

namespace {

// ---------------------------------------------------------------------------
// The shared saturating-exp operation DAG. All tiers execute, per element:
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

// ---------------------------------------------------------------------------
// Bulk kernels. Each returns how many leading elements it processed; the
// dispatching wrapper finishes the remainder with the scalar reference.
// ---------------------------------------------------------------------------

using BulkFn = std::size_t (*)(const double*, double*, std::size_t);
using Bulk2Fn = std::size_t (*)(const double*, const double*, double*,
                                std::size_t);
using BulkSlopeFn = std::size_t (*)(const double*, double, double*,
                                    std::size_t);
using Bulk2SlopeFn = std::size_t (*)(const double*, const double*, double,
                                     double*, std::size_t);

std::size_t exp_bulk_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fast_exp_reference(x[i]);
  }
  return n;
}

std::size_t tanh_bulk_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fast_tanh_reference(x[i]);
  }
  return n;
}

std::size_t sigmoid_bulk_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fast_sigmoid_reference(x[i]);
  }
  return n;
}

std::size_t relu_bulk_scalar(const double* x, double* out, std::size_t n) {
  relu_map_reference(x, out, n);
  return n;
}

std::size_t leaky_bulk_scalar(const double* x, double slope, double* out,
                              std::size_t n) {
  leaky_relu_map_reference(x, slope, out, n);
  return n;
}

std::size_t relu_bwd_bulk_scalar(const double* g, const double* x,
                                 double* grad_in, std::size_t n) {
  relu_backward_map_reference(g, x, grad_in, n);
  return n;
}

std::size_t leaky_bwd_bulk_scalar(const double* g, const double* x,
                                  double slope, double* grad_in,
                                  std::size_t n) {
  leaky_relu_backward_map_reference(g, x, slope, grad_in, n);
  return n;
}

std::size_t tanh_bwd_bulk_scalar(const double* g, const double* y,
                                 double* grad_in, std::size_t n) {
  tanh_backward_map_reference(g, y, grad_in, n);
  return n;
}

std::size_t sigmoid_bwd_bulk_scalar(const double* g, const double* y,
                                    double* grad_in, std::size_t n) {
  sigmoid_backward_map_reference(g, y, grad_in, n);
  return n;
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

__attribute__((target("avx2"))) std::size_t exp_bulk_avx2(const double* x,
                                                          double* out,
                                                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    __m256d e = exp_core_avx2(v);
    e = _mm256_blendv_pd(e, v, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    _mm256_storeu_pd(out + i, e);
  }
  return i;
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

__attribute__((target("avx2"))) std::size_t sigmoid_bulk_avx2(
    const double* x, double* out, std::size_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d a = _mm256_andnot_pd(sign_mask, v);
    const __m256d e = exp_core_avx2(_mm256_xor_pd(a, sign_mask));
    const __m256d d = _mm256_add_pd(one, e);
    __m256d s = _mm256_blendv_pd(_mm256_div_pd(one, d), _mm256_div_pd(e, d),
                                 _mm256_cmp_pd(v, zero, _CMP_LT_OQ));
    s = _mm256_blendv_pd(s, v, _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    _mm256_storeu_pd(out + i, s);
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t relu_bulk_avx2(const double* x,
                                                           double* out,
                                                           std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    // x > 0 -> x, else (incl. NaN and -0.0) -> +0.0: the scalar ternary.
    _mm256_storeu_pd(out + i,
                     _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t leaky_bulk_avx2(const double* x,
                                                            double slope,
                                                            double* out,
                                                            std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sl = _mm256_set1_pd(slope);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(
        out + i, _mm256_blendv_pd(_mm256_mul_pd(sl, v), v,
                                  _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t relu_bwd_bulk_avx2(
    const double* g, const double* x, double* grad_in, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d gv = _mm256_loadu_pd(g + i);
    // x <= 0 -> 0, else (incl. NaN x) -> g: andnot of the LE mask.
    _mm256_storeu_pd(
        grad_in + i,
        _mm256_andnot_pd(_mm256_cmp_pd(xv, zero, _CMP_LE_OQ), gv));
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t leaky_bwd_bulk_avx2(
    const double* g, const double* x, double slope, double* grad_in,
    std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sl = _mm256_set1_pd(slope);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d gv = _mm256_loadu_pd(g + i);
    _mm256_storeu_pd(
        grad_in + i,
        _mm256_blendv_pd(gv, _mm256_mul_pd(sl, gv),
                         _mm256_cmp_pd(xv, zero, _CMP_LE_OQ)));
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t tanh_bwd_bulk_avx2(
    const double* g, const double* y, double* grad_in, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    __m256d t = _mm256_mul_pd(yv, yv);
    __asm__("" : "+x"(t));  // keep 1 - y*y from contracting to FNMADD
    _mm256_storeu_pd(grad_in + i,
                     _mm256_mul_pd(_mm256_loadu_pd(g + i),
                                   _mm256_sub_pd(one, t)));
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t sigmoid_bwd_bulk_avx2(
    const double* g, const double* y, double* grad_in, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d u = _mm256_mul_pd(yv, _mm256_sub_pd(one, yv));
    _mm256_storeu_pd(grad_in + i,
                     _mm256_mul_pd(_mm256_loadu_pd(g + i), u));
  }
  return i;
}

// --- AVX-512F tier (8 lanes) -----------------------------------------------

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
__attribute__((target("avx512f"))) inline __m512d xor512(__m512d a,
                                                         __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_xor_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
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

__attribute__((target("avx512f"))) std::size_t exp_bulk_avx512(
    const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(x + i);
    __m512d e = exp_core_avx512(v);
    e = _mm512_mask_mov_pd(e, _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q), v);
    _mm512_storeu_pd(out + i, e);
  }
  return i;
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

__attribute__((target("avx512f"))) std::size_t sigmoid_bulk_avx512(
    const double* x, double* out, std::size_t n) {
  const __m512d sign_mask = _mm512_set1_pd(-0.0);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(x + i);
    const __m512d a = andnot512(sign_mask, v);
    const __m512d e = exp_core_avx512(xor512(a, sign_mask));
    const __m512d d = _mm512_add_pd(one, e);
    __m512d s = _mm512_mask_mov_pd(_mm512_div_pd(one, d),
                                   _mm512_cmp_pd_mask(v, zero, _CMP_LT_OQ),
                                   _mm512_div_pd(e, d));
    s = _mm512_mask_mov_pd(s, _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q), v);
    _mm512_storeu_pd(out + i, s);
  }
  return i;
}

__attribute__((target("avx512f"))) std::size_t relu_bulk_avx512(
    const double* x, double* out, std::size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(x + i);
    _mm512_storeu_pd(
        out + i,
        _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(v, zero, _CMP_GT_OQ), v));
  }
  return i;
}

__attribute__((target("avx512f"))) std::size_t leaky_bulk_avx512(
    const double* x, double slope, double* out, std::size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d sl = _mm512_set1_pd(slope);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(x + i);
    _mm512_storeu_pd(
        out + i,
        _mm512_mask_mov_pd(_mm512_mul_pd(sl, v),
                           _mm512_cmp_pd_mask(v, zero, _CMP_GT_OQ), v));
  }
  return i;
}

__attribute__((target("avx512f"))) std::size_t relu_bwd_bulk_avx512(
    const double* g, const double* x, double* grad_in, std::size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    const __m512d gv = _mm512_loadu_pd(g + i);
    _mm512_storeu_pd(
        grad_in + i,
        _mm512_maskz_mov_pd(
            _mm512_cmp_pd_mask(xv, zero, _CMP_NLE_UQ), gv));
  }
  return i;
}

__attribute__((target("avx512f"))) std::size_t leaky_bwd_bulk_avx512(
    const double* g, const double* x, double slope, double* grad_in,
    std::size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d sl = _mm512_set1_pd(slope);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    const __m512d gv = _mm512_loadu_pd(g + i);
    _mm512_storeu_pd(
        grad_in + i,
        _mm512_mask_mov_pd(gv, _mm512_cmp_pd_mask(xv, zero, _CMP_LE_OQ),
                           _mm512_mul_pd(sl, gv)));
  }
  return i;
}

__attribute__((target("avx512f"))) std::size_t tanh_bwd_bulk_avx512(
    const double* g, const double* y, double* grad_in, std::size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d yv = _mm512_loadu_pd(y + i);
    __m512d t = _mm512_mul_pd(yv, yv);
    __asm__("" : "+v"(t));  // keep 1 - y*y from contracting to FNMADD
    _mm512_storeu_pd(grad_in + i,
                     _mm512_mul_pd(_mm512_loadu_pd(g + i),
                                   _mm512_sub_pd(one, t)));
  }
  return i;
}

__attribute__((target("avx512f"))) std::size_t sigmoid_bwd_bulk_avx512(
    const double* g, const double* y, double* grad_in, std::size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d yv = _mm512_loadu_pd(y + i);
    const __m512d u = _mm512_mul_pd(yv, _mm512_sub_pd(one, yv));
    _mm512_storeu_pd(grad_in + i,
                     _mm512_mul_pd(_mm512_loadu_pd(g + i), u));
  }
  return i;
}

#endif  // FEDRA_FUSED_X86_SIMD

template <typename Fn>
Fn select_tier(Fn scalar, Fn avx2, Fn avx512) {
#if FEDRA_FUSED_X86_SIMD
  if (__builtin_cpu_supports("avx512f")) return avx512;
  if (__builtin_cpu_supports("avx2")) return avx2;
#else
  (void)avx2;
  (void)avx512;
#endif
  return scalar;
}

#if FEDRA_FUSED_X86_SIMD
#define FEDRA_FUSED_SELECT(name) \
  select_tier(&name##_scalar, &name##_avx2, &name##_avx512)
#else
#define FEDRA_FUSED_SELECT(name) \
  select_tier(&name##_scalar, &name##_scalar, &name##_scalar)
#endif

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
  static const BulkFn bulk = FEDRA_FUSED_SELECT(exp_bulk);
  for (std::size_t i = bulk(x, out, n); i < n; ++i) {
    out[i] = fast_exp_reference(x[i]);
  }
}

void fast_tanh_map(const double* x, double* out, std::size_t n) {
  static const BulkFn bulk = FEDRA_FUSED_SELECT(tanh_bulk);
  for (std::size_t i = bulk(x, out, n); i < n; ++i) {
    out[i] = fast_tanh_reference(x[i]);
  }
}

void fast_sigmoid_map(const double* x, double* out, std::size_t n) {
  static const BulkFn bulk = FEDRA_FUSED_SELECT(sigmoid_bulk);
  for (std::size_t i = bulk(x, out, n); i < n; ++i) {
    out[i] = fast_sigmoid_reference(x[i]);
  }
}

void relu_map_reference(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0 ? x[i] : 0.0;
  }
}

void relu_map(const double* x, double* out, std::size_t n) {
  static const BulkFn bulk = FEDRA_FUSED_SELECT(relu_bulk);
  const std::size_t head = bulk(x, out, n);
  relu_map_reference(x + head, out + head, n - head);
}

void leaky_relu_map_reference(const double* x, double slope, double* out,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0 ? x[i] : slope * x[i];
  }
}

void leaky_relu_map(const double* x, double slope, double* out,
                    std::size_t n) {
  static const BulkSlopeFn bulk = FEDRA_FUSED_SELECT(leaky_bulk);
  const std::size_t head = bulk(x, slope, out, n);
  leaky_relu_map_reference(x + head, slope, out + head, n - head);
}

void relu_backward_map_reference(const double* g, const double* x,
                                 double* grad_in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = x[i] <= 0.0 ? 0.0 : g[i];
  }
}

void relu_backward_map(const double* g, const double* x, double* grad_in,
                       std::size_t n) {
  static const Bulk2Fn bulk = FEDRA_FUSED_SELECT(relu_bwd_bulk);
  const std::size_t head = bulk(g, x, grad_in, n);
  relu_backward_map_reference(g + head, x + head, grad_in + head, n - head);
}

void leaky_relu_backward_map_reference(const double* g, const double* x,
                                       double slope, double* grad_in,
                                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = x[i] <= 0.0 ? slope * g[i] : g[i];
  }
}

void leaky_relu_backward_map(const double* g, const double* x, double slope,
                             double* grad_in, std::size_t n) {
  static const Bulk2SlopeFn bulk = FEDRA_FUSED_SELECT(leaky_bwd_bulk);
  const std::size_t head = bulk(g, x, slope, grad_in, n);
  leaky_relu_backward_map_reference(g + head, x + head, slope,
                                    grad_in + head, n - head);
}

void tanh_backward_map_reference(const double* g, const double* y,
                                 double* grad_in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = g[i] * (1.0 - y[i] * y[i]);
  }
}

void tanh_backward_map(const double* g, const double* y, double* grad_in,
                       std::size_t n) {
  static const Bulk2Fn bulk = FEDRA_FUSED_SELECT(tanh_bwd_bulk);
  const std::size_t head = bulk(g, y, grad_in, n);
  tanh_backward_map_reference(g + head, y + head, grad_in + head, n - head);
}

void sigmoid_backward_map_reference(const double* g, const double* y,
                                    double* grad_in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = g[i] * (y[i] * (1.0 - y[i]));
  }
}

void sigmoid_backward_map(const double* g, const double* y, double* grad_in,
                          std::size_t n) {
  static const Bulk2Fn bulk = FEDRA_FUSED_SELECT(sigmoid_bwd_bulk);
  const std::size_t head = bulk(g, y, grad_in, n);
  sigmoid_backward_map_reference(g + head, y + head, grad_in + head,
                                 n - head);
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

/// Scalar-only variant of act_apply for the *_reference fused passes.
void act_apply_reference(FusedAct act, const double* x, double* out,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = act == FusedAct::Tanh ? fast_tanh_reference(x[i])
                                   : fast_sigmoid_reference(x[i]);
  }
}

// Fused backward row kernels: dpre and the running column sum in one
// sweep. Row-ascending accumulation into cs matches col_sum_into.

std::size_t tanh_bwd_row_scalar(const double* g, const double* y, double* d,
                                double* cs, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = g[j] * (1.0 - y[j] * y[j]);
    d[j] = v;
    cs[j] += v;
  }
  return n;
}

std::size_t sigmoid_bwd_row_scalar(const double* g, const double* y,
                                   double* d, double* cs, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = g[j] * (y[j] * (1.0 - y[j]));
    d[j] = v;
    cs[j] += v;
  }
  return n;
}

#if FEDRA_FUSED_X86_SIMD

__attribute__((target("avx2"))) std::size_t tanh_bwd_row_avx2(
    const double* g, const double* y, double* d, double* cs, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d yv = _mm256_loadu_pd(y + j);
    __m256d t = _mm256_mul_pd(yv, yv);
    __asm__("" : "+x"(t));  // keep 1 - y*y from contracting to FNMADD
    const __m256d v =
        _mm256_mul_pd(_mm256_loadu_pd(g + j), _mm256_sub_pd(one, t));
    _mm256_storeu_pd(d + j, v);
    _mm256_storeu_pd(cs + j, _mm256_add_pd(_mm256_loadu_pd(cs + j), v));
  }
  return j;
}

__attribute__((target("avx2"))) std::size_t sigmoid_bwd_row_avx2(
    const double* g, const double* y, double* d, double* cs, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d yv = _mm256_loadu_pd(y + j);
    const __m256d u = _mm256_mul_pd(yv, _mm256_sub_pd(one, yv));
    const __m256d v = _mm256_mul_pd(_mm256_loadu_pd(g + j), u);
    _mm256_storeu_pd(d + j, v);
    _mm256_storeu_pd(cs + j, _mm256_add_pd(_mm256_loadu_pd(cs + j), v));
  }
  return j;
}

__attribute__((target("avx512f"))) std::size_t tanh_bwd_row_avx512(
    const double* g, const double* y, double* d, double* cs, std::size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d yv = _mm512_loadu_pd(y + j);
    __m512d t = _mm512_mul_pd(yv, yv);
    __asm__("" : "+v"(t));  // keep 1 - y*y from contracting to FNMADD
    const __m512d v =
        _mm512_mul_pd(_mm512_loadu_pd(g + j), _mm512_sub_pd(one, t));
    _mm512_storeu_pd(d + j, v);
    _mm512_storeu_pd(cs + j, _mm512_add_pd(_mm512_loadu_pd(cs + j), v));
  }
  return j;
}

__attribute__((target("avx512f"))) std::size_t sigmoid_bwd_row_avx512(
    const double* g, const double* y, double* d, double* cs, std::size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d yv = _mm512_loadu_pd(y + j);
    const __m512d u = _mm512_mul_pd(yv, _mm512_sub_pd(one, yv));
    const __m512d v = _mm512_mul_pd(_mm512_loadu_pd(g + j), u);
    _mm512_storeu_pd(d + j, v);
    _mm512_storeu_pd(cs + j, _mm512_add_pd(_mm512_loadu_pd(cs + j), v));
  }
  return j;
}

#endif  // FEDRA_FUSED_X86_SIMD

using RowAccumFn = std::size_t (*)(const double*, const double*, double*,
                                   double*, std::size_t);

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
  static const RowAccumFn tanh_row = FEDRA_FUSED_SELECT(tanh_bwd_row);
  static const RowAccumFn sigmoid_row = FEDRA_FUSED_SELECT(sigmoid_bwd_row);
  const RowAccumFn bulk = act == FusedAct::Tanh ? tanh_row : sigmoid_row;
  const auto tail = act == FusedAct::Tanh ? &tanh_bwd_row_scalar
                                          : &sigmoid_bwd_row_scalar;
  const std::size_t cols = y.cols();
  double* cs = colsum.data();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    const double* gr = g.data() + i * cols;
    const double* yr = y.data() + i * cols;
    double* dr = dpre.data() + i * cols;
    const std::size_t head = bulk(gr, yr, dr, cs, cols);
    tail(gr + head, yr + head, dr + head, cs + head, cols - head);
  }
}

void act_backward_colsum_into_reference(const Matrix& g, const Matrix& y,
                                        FusedAct act, Matrix& dpre,
                                        Matrix& colsum) {
  FEDRA_EXPECTS(g.same_shape(y));
  dpre.resize_reuse(y.rows(), y.cols());
  colsum.resize_reuse(1, y.cols());
  colsum.set_zero();
  const std::size_t cols = y.cols();
  double* cs = colsum.data();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    const double* gr = g.data() + i * cols;
    const double* yr = y.data() + i * cols;
    double* dr = dpre.data() + i * cols;
    if (act == FusedAct::Tanh) {
      tanh_bwd_row_scalar(gr, yr, dr, cs, cols);
    } else {
      sigmoid_bwd_row_scalar(gr, yr, dr, cs, cols);
    }
  }
}

}  // namespace fedra

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define FEDRA_GEMM_X86_SIMD 1
#include <immintrin.h>
#else
#define FEDRA_GEMM_X86_SIMD 0
#endif

namespace fedra {

namespace {

// ---- Blocked GEMM ------------------------------------------------------
//
// All three products (A*B, A^T*B, A*B^T) share one blocked engine: an
// MR x NR register tile of C accumulated over one k block, with the B
// operand packed into contiguous (kc x nr) panels and the A operand read
// through (row, k) strides that encode whether A is traversed row-major
// (A*B, A*B^T) or column-major (A^T*B). Tiling regroups only (i, j) work;
// each C element still receives its k terms one at a time in ascending-k
// order starting from +0.0, which is what keeps the blocked kernels
// bit-identical to the reference loops (and the golden trajectory valid).
// Products too small for one full register tile skip the pack and stream
// B in place (gemm_direct) under the same order.
//
// Because the repo builds for baseline x86-64 (SSE2) by default, the full
// tiles dispatch at runtime to AVX-512F / AVX2 micro-kernels compiled via
// per-function target attributes. SIMD lanes hold distinct j columns, so
// per-element term order is untouched; the kernels use separate mul and
// add (never FMA — a fused a*b+c rounds once instead of twice), with an
// empty asm barrier on the product so the compiler cannot contract the
// pair even on ISAs whose feature set includes FMA.
constexpr std::size_t kKC = 128;  ///< k extent of a cache block
constexpr std::size_t kNC = 256;  ///< j extent of a cache block (packed B)
// kNC must be a multiple of every tier's NR so pack panels never overflow.
static_assert(kNC % 8 == 0 && kNC % 4 == 0);

/// How gemm_blocked reads the B operand when packing a (kc x nc) block.
enum class BPack {
  kColumns,  ///< panel[kk][jj] = B[k0+kk][j0+jj]  (A*B, A^T*B)
  kRows,     ///< panel[kk][jj] = B[j0+jj][k0+kk]  (A*B^T: B rows are the
             ///<                                   contraction streams)
};

/// Copies one (kc x nc) block of B into panels of NR columns so the
/// micro-kernel streams it with unit stride. Pure data movement — packing
/// never touches the accumulation order.
template <std::size_t NR>
void pack_b_block(const double* b, std::size_t ldb, BPack mode,
                  std::size_t k0, std::size_t j0, std::size_t kc,
                  std::size_t nc, double* pack) {
  for (std::size_t jp = 0; jp * NR < nc; ++jp) {
    const std::size_t nr = std::min(NR, nc - jp * NR);
    double* dst = pack + jp * kc * NR;  // earlier panels are always full
    const std::size_t j = j0 + jp * NR;
    if (mode == BPack::kColumns) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const double* src = b + (k0 + kk) * ldb + j;
        for (std::size_t jj = 0; jj < nr; ++jj) dst[kk * nr + jj] = src[jj];
      }
    } else {
      for (std::size_t jj = 0; jj < nr; ++jj) {
        const double* src = b + (j + jj) * ldb + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) dst[kk * nr + jj] = src[kk];
      }
    }
  }
}

/// Full register tile, portable form: acc[ii][jj] += a(ii, kk) *
/// panel[kk][jj] for kk ascending, on top of the partial sums C already
/// holds from earlier k blocks. Fixed trip counts so the compiler unrolls
/// the jj loop; the per-element term order is exactly the reference
/// kernel's.
template <std::size_t MR, std::size_t NR>
void micro_full_generic(std::size_t kc, const double* a, std::size_t a_rs,
                        std::size_t a_cs, const double* bp, double* c,
                        std::size_t ldc) {
  double acc[MR][NR];
  for (std::size_t ii = 0; ii < MR; ++ii) {
    for (std::size_t jj = 0; jj < NR; ++jj) acc[ii][jj] = c[ii * ldc + jj];
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* b = bp + kk * NR;
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const double av = a[ii * a_rs + kk * a_cs];
      for (std::size_t jj = 0; jj < NR; ++jj) acc[ii][jj] += av * b[jj];
    }
  }
  for (std::size_t ii = 0; ii < MR; ++ii) {
    for (std::size_t jj = 0; jj < NR; ++jj) c[ii * ldc + jj] = acc[ii][jj];
  }
}

#if FEDRA_GEMM_X86_SIMD
/// AVX2 4x8 tile. target("avx2") deliberately omits "fma": the ISA the
/// compiler sees has no fused multiply-add, so mul+add cannot contract and
/// every term rounds exactly like the scalar kernel. Lanes are distinct j
/// columns; kk still ascends one term at a time.
__attribute__((target("avx2"))) void micro_full_avx2(
    std::size_t kc, const double* a, std::size_t a_rs, std::size_t a_cs,
    const double* bp, double* c, std::size_t ldc) {
  __m256d acc[4][2];
  for (std::size_t ii = 0; ii < 4; ++ii) {
    acc[ii][0] = _mm256_loadu_pd(c + ii * ldc);
    acc[ii][1] = _mm256_loadu_pd(c + ii * ldc + 4);
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256d b0 = _mm256_loadu_pd(bp + kk * 8);
    const __m256d b1 = _mm256_loadu_pd(bp + kk * 8 + 4);
    for (std::size_t ii = 0; ii < 4; ++ii) {
      const __m256d av = _mm256_broadcast_sd(a + ii * a_rs + kk * a_cs);
      __m256d t0 = _mm256_mul_pd(av, b0);
      __m256d t1 = _mm256_mul_pd(av, b1);
      __asm__("" : "+x"(t0), "+x"(t1));  // keep mul/add unfused
      acc[ii][0] = _mm256_add_pd(acc[ii][0], t0);
      acc[ii][1] = _mm256_add_pd(acc[ii][1], t1);
    }
  }
  for (std::size_t ii = 0; ii < 4; ++ii) {
    _mm256_storeu_pd(c + ii * ldc, acc[ii][0]);
    _mm256_storeu_pd(c + ii * ldc + 4, acc[ii][1]);
  }
}

/// AVX-512F 8x8 tile. AVX-512F itself includes FMA encodings, so here the
/// asm barrier on the product is what guarantees the compiler emits
/// separate vmulpd/vaddpd (verified: contraction produces bit-different
/// sums AND ~53k mismatches vs the scalar kernel on a 256^3 product).
__attribute__((target("avx512f"))) void micro_full_avx512(
    std::size_t kc, const double* a, std::size_t a_rs, std::size_t a_cs,
    const double* bp, double* c, std::size_t ldc) {
  __m512d acc[8];
  for (std::size_t ii = 0; ii < 8; ++ii) {
    acc[ii] = _mm512_loadu_pd(c + ii * ldc);
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m512d b0 = _mm512_loadu_pd(bp + kk * 8);
    for (std::size_t ii = 0; ii < 8; ++ii) {
      const __m512d av = _mm512_set1_pd(a[ii * a_rs + kk * a_cs]);
      __m512d t = _mm512_mul_pd(av, b0);
      __asm__("" : "+v"(t));  // keep mul/add unfused
      acc[ii] = _mm512_add_pd(acc[ii], t);
    }
  }
  for (std::size_t ii = 0; ii < 8; ++ii) {
    _mm512_storeu_pd(c + ii * ldc, acc[ii]);
  }
}
#endif  // FEDRA_GEMM_X86_SIMD

/// W adjacent columns of one C row over kdim terms, with row k of B at
/// b + k*ldb: B itself on the direct path, a packed panel in an edge tile
/// (mr < MR or nr < NR). The W accumulators start from what C holds (+0.0,
/// or earlier k blocks' sums) and take their terms one at a time in
/// ascending k, the reference loops' order. Fully unrolled so they live in
/// registers. Compiled for the baseline ISA, which has no FMA to fuse the
/// mul+add into (FEDRA_NATIVE adds -ffp-contract=off).
template <std::size_t W>
void row_strip(std::size_t kdim, const double* a, std::size_t a_cs,
               const double* b, std::size_t ldb, double* c) {
  double acc[W];
#pragma GCC unroll 8
  for (std::size_t jj = 0; jj < W; ++jj) acc[jj] = c[jj];
  for (std::size_t k = 0; k < kdim; ++k) {
    const double av = a[k * a_cs];
    const double* brow = b + k * ldb;
#pragma GCC unroll 8
    for (std::size_t jj = 0; jj < W; ++jj) acc[jj] += av * brow[jj];
  }
#pragma GCC unroll 8
  for (std::size_t jj = 0; jj < W; ++jj) c[jj] = acc[jj];
}

using RowStripFn = void (*)(std::size_t, const double*, std::size_t,
                            const double*, std::size_t, double*);
constexpr RowStripFn kRowStrip[] = {
    nullptr,      row_strip<1>, row_strip<2>, row_strip<3>, row_strip<4>,
    row_strip<5>, row_strip<6>, row_strip<7>, row_strip<8>};

/// Edge tile (mr < MR or nr < NR): one strip per row over the packed
/// panel, whose rows are nr doubles apart.
void micro_edge(std::size_t mr, std::size_t nr, std::size_t kc,
                const double* a, std::size_t a_rs, std::size_t a_cs,
                const double* bp, double* c, std::size_t ldc) {
  for (std::size_t ii = 0; ii < mr; ++ii) {
    kRowStrip[nr](kc, a + ii * a_rs, a_cs, bp, nr, c + ii * ldc);
  }
}

/// Direct path for B read by columns (A*B, A^T*B): C(m x p) += Aop * B in
/// strips of up to 8 columns per row, with no pack and no edge tile.
void gemm_direct(std::size_t m, std::size_t kdim, std::size_t p,
                 const double* a, std::size_t a_rs, std::size_t a_cs,
                 const double* b, std::size_t ldb, double* c,
                 std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < p; j += 8) {
      kRowStrip[std::min<std::size_t>(8, p - j)](
          kdim, a + i * a_rs, a_cs, b + j, ldb, c + i * ldc + j);
    }
  }
}

using MicroFullFn = void (*)(std::size_t, const double*, std::size_t,
                             std::size_t, const double*, double*,
                             std::size_t);

/// Blocked driver: C(m x p) += Aop * Bop with contraction length kdim,
/// where Aop(i, k) = a[i*a_rs + k*a_cs] and Bop is packed per `mode`.
/// C must be zero-initialized (or hold valid partial sums). A product
/// that fills no full MR x NR tile and whose B is read by columns (batch-1
/// rows, the 3- and 1-wide heads) takes the direct path instead.
template <std::size_t MR, std::size_t NR, MicroFullFn MicroFull>
void gemm_blocked_impl(std::size_t m, std::size_t kdim, std::size_t p,
                       const double* a, std::size_t a_rs, std::size_t a_cs,
                       const double* b, std::size_t ldb, BPack mode,
                       double* c, std::size_t ldc) {
  if (mode == BPack::kColumns && (m < MR || p < NR)) {
    gemm_direct(m, kdim, p, a, a_rs, a_cs, b, ldb, c, ldc);
    return;
  }
  // Sized to the largest block this product packs (the first one), not to
  // kKC x kNC: a 64 x 64 B operand needs 32 KB, not 256 KB, on every
  // thread that runs a GEMM.
  thread_local std::vector<double> pack_buf;  // plain heap: not a tensor
  const std::size_t pack_size = std::min(kKC, kdim) * std::min(kNC, p);
  if (pack_buf.size() < pack_size) pack_buf.resize(pack_size);
  for (std::size_t k0 = 0; k0 < kdim; k0 += kKC) {
    const std::size_t kc = std::min(kKC, kdim - k0);
    for (std::size_t j0 = 0; j0 < p; j0 += kNC) {
      const std::size_t nc = std::min(kNC, p - j0);
      pack_b_block<NR>(b, ldb, mode, k0, j0, kc, nc, pack_buf.data());
      for (std::size_t i0 = 0; i0 < m; i0 += MR) {
        const std::size_t mr = std::min(MR, m - i0);
        const double* abase = a + i0 * a_rs + k0 * a_cs;
        for (std::size_t jp = 0; jp * NR < nc; ++jp) {
          const std::size_t nr = std::min(NR, nc - jp * NR);
          const double* bp = pack_buf.data() + jp * kc * NR;
          double* ct = c + i0 * ldc + j0 + jp * NR;
          if (mr == MR && nr == NR) {
            MicroFull(kc, abase, a_rs, a_cs, bp, ct, ldc);
          } else {
            micro_edge(mr, nr, kc, abase, a_rs, a_cs, bp, ct, ldc);
          }
        }
      }
    }
  }
}

using GemmFn = void (*)(std::size_t, std::size_t, std::size_t, const double*,
                        std::size_t, std::size_t, const double*, std::size_t,
                        BPack, double*, std::size_t);

/// Picks the widest micro-kernel this CPU supports. Tier choice affects
/// only throughput, never bits — all tiers share the per-element
/// ascending-k accumulation order.
GemmFn select_gemm_impl() {
#if FEDRA_GEMM_X86_SIMD
  if (__builtin_cpu_supports("avx512f")) {
    return gemm_blocked_impl<8, 8, micro_full_avx512>;
  }
  if (__builtin_cpu_supports("avx2")) {
    return gemm_blocked_impl<4, 8, micro_full_avx2>;
  }
#endif
  return gemm_blocked_impl<4, 4, micro_full_generic<4, 4>>;
}

void gemm_blocked(std::size_t m, std::size_t kdim, std::size_t p,
                  const double* a, std::size_t a_rs, std::size_t a_cs,
                  const double* b, std::size_t ldb, BPack mode, double* c,
                  std::size_t ldc) {
  if (m == 0 || kdim == 0 || p == 0) return;
  static const GemmFn impl = select_gemm_impl();
  impl(m, kdim, p, a, a_rs, a_cs, b, ldb, mode, c, ldc);
}

void check_matmul_shapes(const Matrix& a, const Matrix& b, const Matrix& c) {
  FEDRA_EXPECTS(&c != &a && &c != &b);
  (void)a;
  (void)b;
  (void)c;
}

}  // namespace

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  FEDRA_EXPECTS(a.cols() == b.rows());
  check_matmul_shapes(a, b, c);
  c.resize_reuse(a.rows(), b.cols());
  c.set_zero();
  gemm_blocked(a.rows(), a.cols(), b.cols(), a.data(), a.cols(), 1, b.data(),
               b.cols(), BPack::kColumns, c.data(), c.cols());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  FEDRA_EXPECTS(a.rows() == b.rows());
  check_matmul_shapes(a, b, c);
  c.resize_reuse(a.cols(), b.cols());
  c.set_zero();
  // Output row i is column i of A: consecutive output rows sit 1 apart,
  // consecutive k terms a full A row apart.
  gemm_blocked(a.cols(), a.rows(), b.cols(), a.data(), 1, a.cols(), b.data(),
               b.cols(), BPack::kColumns, c.data(), c.cols());
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_b_into(a, b, c);
  return c;
}

void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  FEDRA_EXPECTS(a.cols() == b.cols());
  check_matmul_shapes(a, b, c);
  c.resize_reuse(a.rows(), b.rows());
  c.set_zero();
  // B rows are the contraction streams; pack them k-major so the
  // micro-kernel reads one contiguous line per k step.
  gemm_blocked(a.rows(), a.cols(), b.rows(), a.data(), a.cols(), 1, b.data(),
               b.cols(), BPack::kRows, c.data(), c.cols());
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_a_bt_into(a, b, c);
  return c;
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * n;
    double* crow = c.data() + i * p;
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = arow[k];
      const double* brow = b.data() + k * p;
      for (std::size_t j = 0; j < p; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix matmul_at_b_reference(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t p = b.cols();
  for (std::size_t k = 0; k < m; ++k) {
    const double* arow = a.data() + k * n;
    const double* brow = b.data() + k * p;
    for (std::size_t i = 0; i < n; ++i) {
      const double aki = arow[i];
      double* crow = c.data() + i * p;
      for (std::size_t j = 0; j < p; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix matmul_a_bt_reference(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * n;
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data() + j * n;
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += arow[k] * brow[k];
      c(i, j) = acc;
    }
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c += b;
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c -= b;
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.hadamard_inplace(b);
  return c;
}

Matrix scale(const Matrix& a, double s) {
  Matrix c = a;
  c *= s;
  return c;
}

void axpy(double a, const Matrix& x, Matrix& y) {
  FEDRA_EXPECTS(x.same_shape(y));
  const double* xd = x.data();
  double* yd = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) yd[i] += a * xd[i];
}

Matrix apply(const Matrix& a, const std::function<double(double)>& f) {
  Matrix c = a;
  apply_inplace(c, f);
  return c;
}

void apply_inplace(Matrix& a, const std::function<double(double)>& f) {
  for (auto& x : a.flat()) x = f(x);
}

void add_row_broadcast(Matrix& a, const Matrix& bias) {
  FEDRA_EXPECTS(bias.rows() == 1 && bias.cols() == a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) row[j] += bias[j];
  }
}

void col_sum_into(const Matrix& a, Matrix& s) {
  FEDRA_EXPECTS(&s != &a);
  s.resize_reuse(1, a.cols());
  s.set_zero();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) s[j] += row[j];
  }
}

Matrix col_sum(const Matrix& a) {
  Matrix s;
  col_sum_into(a, s);
  return s;
}

Matrix row_sum(const Matrix& a) {
  Matrix s(a.rows(), 1);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    const double* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j];
    s[i] = acc;
  }
  return s;
}

double sum(const Matrix& a) {
  double acc = 0.0;
  for (double x : a.flat()) acc += x;
  return acc;
}

double frobenius_norm(const Matrix& a) {
  double acc = 0.0;
  for (double x : a.flat()) acc += x * x;
  return std::sqrt(acc);
}

double dot(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.size() == b.size());
  double acc = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) acc += ad[i] * bd[i];
  return acc;
}

std::size_t argmax_row(const Matrix& a, std::size_t r) {
  FEDRA_EXPECTS(r < a.rows() && a.cols() > 0);
  auto row = a.row(r);
  std::size_t best = 0;
  for (std::size_t j = 1; j < row.size(); ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  FEDRA_EXPECTS(a.same_shape(b));
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

void clip_inplace(Matrix& a, double lo, double hi) {
  FEDRA_EXPECTS(lo <= hi);
  for (auto& x : a.flat()) x = std::clamp(x, lo, hi);
}

}  // namespace fedra

#include "sim/fleet_pricing.hpp"

#include <algorithm>

#if defined(__x86_64__) && defined(__GNUC__)
#define FEDRA_FLEET_X86_SIMD 1
#include <immintrin.h>
#else
#define FEDRA_FLEET_X86_SIMD 0
#endif

namespace fedra::fleet {

namespace {

/// 0 = scalar, 1 = AVX2, 2 = AVX-512F. Cached once per process.
int detect_tier() {
#if FEDRA_FLEET_X86_SIMD
  if (__builtin_cpu_supports("avx512f")) return 2;
  if (__builtin_cpu_supports("avx2")) return 1;
#endif
  return 0;
}

int tier() {
  static const int t = detect_tier();
  return t;
}

}  // namespace

const char* simd_tier() {
  switch (tier()) {
    case 2: return "avx512f";
    case 1: return "avx2";
    default: return "scalar";
  }
}

// ---- Scalar kernels ----------------------------------------------------
//
// Operation-for-operation the DeviceProfile member math: the clamp is
// std::clamp(f, frac*max, max), t_cmp is ((tau*c)*D)/f, E_cmp is
// ((((tau*alpha)*c)*D)*f)*f — matching compute_time()/compute_energy()
// left-to-right evaluation so the columnar path is bit-exact against the
// per-device AoS loop. price_compute_reference also serves as the tail
// handler of the SIMD dispatcher. All three are compiled for the baseline
// ISA, so no mul+add contracts into FMA.

void price_compute_reference(std::size_t n, double tau,
                             double min_freq_fraction,
                             const double* cycles_per_bit,
                             const double* dataset_bits,
                             const double* capacitance,
                             const double* max_freq_hz,
                             const double* freqs_in, double* freq_hz,
                             double* compute_time, double* compute_energy) {
  for (std::size_t i = 0; i < n; ++i) {
    const double floor_hz = min_freq_fraction * max_freq_hz[i];
    const double f = std::clamp(freqs_in[i], floor_hz, max_freq_hz[i]);
    freq_hz[i] = f;
    compute_time[i] = tau * cycles_per_bit[i] * dataset_bits[i] / f;
    compute_energy[i] =
        tau * capacitance[i] * cycles_per_bit[i] * dataset_bits[i] * f * f;
  }
}

void deadline_freqs(std::size_t n, double tau, double min_freq_fraction,
                    double deadline, const double* cycles_per_bit,
                    const double* dataset_bits, const double* max_freq_hz,
                    const double* est_comm_times, double* freqs_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double floor_hz = min_freq_fraction * max_freq_hz[i];
    const double budget = deadline - est_comm_times[i];
    double f;
    if (budget <= 0.0) {
      f = max_freq_hz[i];  // cannot make the deadline; run flat out
    } else {
      f = tau * cycles_per_bit[i] * dataset_bits[i] / budget;
    }
    freqs_out[i] = std::clamp(f, floor_hz, max_freq_hz[i]);
  }
}

void predicted_terms(std::size_t n, double tau, const double* cycles_per_bit,
                     const double* dataset_bits, const double* capacitance,
                     const double* tx_power_w, const double* est_comm_times,
                     const double* freqs_hz, double* time_out,
                     double* energy_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double tcmp = tau * cycles_per_bit[i] * dataset_bits[i] / freqs_hz[i];
    time_out[i] = tcmp + est_comm_times[i];
    const double ce = tau * capacitance[i] * cycles_per_bit[i] *
                      dataset_bits[i] * freqs_hz[i] * freqs_hz[i];
    energy_out[i] = ce + tx_power_w[i] * est_comm_times[i];
  }
}

// ---- price_compute SIMD tiers ------------------------------------------

#if FEDRA_FLEET_X86_SIMD

// GCC's _mm512_min_pd/_mm512_max_pd pass _mm512_undefined_pd() as the
// masked-off source, tripping -Wmaybe-uninitialized when inlined here even
// though every lane is selected.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Each tier processes only whole vectors (n a multiple of the width);
// the dispatcher routes the remainder through the baseline-compiled scalar
// reference so no tail arithmetic runs under a wider target attribute
// (where the compiler could contract scalar mul+add into FMA).
//
// min/max replace std::clamp lane-wise: identical for finite inputs, and
// the engine's frequency actions are finite by contract.

__attribute__((target("avx2"))) void price_compute_avx2(
    std::size_t n, double tau, double min_freq_fraction,
    const double* cycles_per_bit, const double* dataset_bits,
    const double* capacitance, const double* max_freq_hz,
    const double* freqs_in, double* freq_hz, double* compute_time,
    double* compute_energy) {
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vfrac = _mm256_set1_pd(min_freq_fraction);
  for (std::size_t i = 0; i < n; i += 4) {
    const __m256d c = _mm256_loadu_pd(cycles_per_bit + i);
    const __m256d d = _mm256_loadu_pd(dataset_bits + i);
    const __m256d cap = _mm256_loadu_pd(capacitance + i);
    const __m256d fmax = _mm256_loadu_pd(max_freq_hz + i);
    const __m256d fin = _mm256_loadu_pd(freqs_in + i);
    const __m256d floor_hz = _mm256_mul_pd(vfrac, fmax);
    const __m256d f = _mm256_min_pd(_mm256_max_pd(fin, floor_hz), fmax);
    const __m256d cd = _mm256_mul_pd(_mm256_mul_pd(vtau, c), d);
    const __m256d e = _mm256_mul_pd(
        _mm256_mul_pd(
            _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(vtau, cap), c), d), f),
        f);
    _mm256_storeu_pd(freq_hz + i, f);
    _mm256_storeu_pd(compute_time + i, _mm256_div_pd(cd, f));
    _mm256_storeu_pd(compute_energy + i, e);
  }
}

__attribute__((target("avx512f"))) void price_compute_avx512(
    std::size_t n, double tau, double min_freq_fraction,
    const double* cycles_per_bit, const double* dataset_bits,
    const double* capacitance, const double* max_freq_hz,
    const double* freqs_in, double* freq_hz, double* compute_time,
    double* compute_energy) {
  const __m512d vtau = _mm512_set1_pd(tau);
  const __m512d vfrac = _mm512_set1_pd(min_freq_fraction);
  for (std::size_t i = 0; i < n; i += 8) {
    const __m512d c = _mm512_loadu_pd(cycles_per_bit + i);
    const __m512d d = _mm512_loadu_pd(dataset_bits + i);
    const __m512d cap = _mm512_loadu_pd(capacitance + i);
    const __m512d fmax = _mm512_loadu_pd(max_freq_hz + i);
    const __m512d fin = _mm512_loadu_pd(freqs_in + i);
    const __m512d floor_hz = _mm512_mul_pd(vfrac, fmax);
    const __m512d f = _mm512_min_pd(_mm512_max_pd(fin, floor_hz), fmax);
    const __m512d cd = _mm512_mul_pd(_mm512_mul_pd(vtau, c), d);
    const __m512d e = _mm512_mul_pd(
        _mm512_mul_pd(
            _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(vtau, cap), c), d), f),
        f);
    _mm512_storeu_pd(freq_hz + i, f);
    _mm512_storeu_pd(compute_time + i, _mm512_div_pd(cd, f));
    _mm512_storeu_pd(compute_energy + i, e);
  }
}

#pragma GCC diagnostic pop

#endif  // FEDRA_FLEET_X86_SIMD

// ---- Dispatcher --------------------------------------------------------

void price_compute(std::size_t n, double tau, double min_freq_fraction,
                   const double* cycles_per_bit, const double* dataset_bits,
                   const double* capacitance, const double* max_freq_hz,
                   const double* freqs_in, double* freq_hz,
                   double* compute_time, double* compute_energy) {
  std::size_t head = 0;
#if FEDRA_FLEET_X86_SIMD
  if (tier() == 2) {
    head = n & ~std::size_t{7};
    price_compute_avx512(head, tau, min_freq_fraction, cycles_per_bit,
                         dataset_bits, capacitance, max_freq_hz, freqs_in,
                         freq_hz, compute_time, compute_energy);
  } else if (tier() == 1) {
    head = n & ~std::size_t{3};
    price_compute_avx2(head, tau, min_freq_fraction, cycles_per_bit,
                       dataset_bits, capacitance, max_freq_hz, freqs_in,
                       freq_hz, compute_time, compute_energy);
  }
#endif
  price_compute_reference(n - head, tau, min_freq_fraction,
                          cycles_per_bit + head, dataset_bits + head,
                          capacitance + head, max_freq_hz + head,
                          freqs_in + head, freq_hz + head,
                          compute_time + head, compute_energy + head);
}

}  // namespace fedra::fleet

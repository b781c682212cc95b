// Fleet pricing kernels — Eqs. (1)/(6) and the deadline-solver per-device
// math evaluated across structure-of-arrays device columns.
//
// price_compute runs on every device of a fleet round (up to 1M), so it is
// the one kernel here with hand-written SIMD. Same discipline as the GEMM
// kernels (src/tensor/ops.cpp): it dispatches at runtime to an AVX-512F /
// AVX2 / scalar implementation compiled via per-function target
// attributes, and every tier is bit-identical to price_compute_reference,
// which the property tests and the fleet bench compare against. It is a
// pure element-wise map (no cross-lane reductions), so SIMD width never
// touches summation order.
//
// deadline_freqs and predicted_terms serve the deadline solver, which
// prices a few dozen devices at a time; they are plain scalar loops
// compiled for the baseline ISA (so no mul+add contracts into FMA).
//
// All functions take raw column pointers (length n) rather than spans so
// tests can poison the padding beyond n and assert the kernels never read
// or write it.
#pragma once

#include <cstddef>

namespace fedra::fleet {

/// Compute-side pricing for n devices: clamps the requested frequency to
/// [min_freq_fraction * max, max] (DeviceProfile semantics), then
/// t_cmp = tau*c*D / f (Eq. 1) and E_cmp = tau*alpha*c*D*f^2 (Eq. 6).
/// Output columns freq_hz / compute_time / compute_energy (length n).
void price_compute(std::size_t n, double tau, double min_freq_fraction,
                   const double* cycles_per_bit, const double* dataset_bits,
                   const double* capacitance, const double* max_freq_hz,
                   const double* freqs_in, double* freq_hz,
                   double* compute_time, double* compute_energy);
/// Scalar oracle for price_compute (bitwise target of every tier).
void price_compute_reference(std::size_t n, double tau,
                             double min_freq_fraction,
                             const double* cycles_per_bit,
                             const double* dataset_bits,
                             const double* capacitance,
                             const double* max_freq_hz,
                             const double* freqs_in, double* freq_hz,
                             double* compute_time, double* compute_energy);

/// Minimal feasible frequency per device to finish computing by `deadline`
/// given estimated comm times: f = tau*c*D / (deadline - est), devices
/// that cannot make it run at max, all clamped to [floor, max]. The
/// columnar body of sched's freqs_for_deadline.
void deadline_freqs(std::size_t n, double tau, double min_freq_fraction,
                    double deadline, const double* cycles_per_bit,
                    const double* dataset_bits, const double* max_freq_hz,
                    const double* est_comm_times, double* freqs_out);

/// Predicted per-device completion time (t_cmp + est) and round energy
/// (E_cmp + e*est) under estimated comm times — the per-device terms of
/// sched's predicted_cost, whose reduction stays a sequential scalar sum.
void predicted_terms(std::size_t n, double tau, const double* cycles_per_bit,
                     const double* dataset_bits, const double* capacitance,
                     const double* tx_power_w, const double* est_comm_times,
                     const double* freqs_hz, double* time_out,
                     double* energy_out);

/// Widest tier price_compute dispatches to on this CPU: "avx512f",
/// "avx2", or "scalar" (bench reporting; tier choice never affects bits).
const char* simd_tier();

}  // namespace fedra::fleet

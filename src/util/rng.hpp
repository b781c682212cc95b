// Deterministic, seedable random number generation.
//
// Every stochastic component in fedra takes an explicit Rng so that
// experiments are reproducible bit-for-bit. The core generator is
// xoshiro256**, seeded via SplitMix64 (the recommended seeding procedure).
// No global RNG state exists anywhere in the library (CP.1/CP.2).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace fedra {

/// Full internal state of an Rng — the four xoshiro words plus the
/// Marsaglia-polar cache. Capturing and restoring it reproduces the draw
/// stream bit-for-bit from the capture point (checkpoint/resume).
struct RngState {
  std::array<std::uint64_t, 4> s{};
  bool gauss_cached = false;
  double gauss_cache = 0.0;
};

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality, 2^256-1 period.
///
/// Satisfies UniformRandomBitGenerator, and additionally provides the
/// floating-point and distribution helpers fedra uses everywhere.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    gauss_cached_ = false;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    FEDRA_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive), unbiased via rejection.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    FEDRA_EXPECTS(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(next_u64());  // full span
    const std::uint64_t limit = max() - max() % range;
    std::uint64_t v;
    do {
      v = next_u64();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % range);
  }

  /// Standard normal via Marsaglia polar method (cached pair).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    FEDRA_EXPECTS(stddev >= 0.0);
    return mean + stddev * gaussian();
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) {
    FEDRA_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child generator (for parallel streams).
  Rng split() { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ULL); }

  /// Snapshot of the full stream position (see RngState).
  RngState state() const { return {s_, gauss_cached_, gauss_cache_}; }

  /// Restores a snapshot taken with state(); subsequent draws continue
  /// the captured stream exactly.
  void set_state(const RngState& state) {
    s_ = state.s;
    gauss_cached_ = state.gauss_cached;
    gauss_cache_ = state.gauss_cache;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  bool gauss_cached_ = false;
  double gauss_cache_ = 0.0;
};

}  // namespace fedra

#include "sim/cohort.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace fedra {

namespace {

/// Rank key of device `id` in `round` — one SplitMix64 step over the
/// order-free (seed, round, id) combine also used by the fault model.
std::uint64_t cohort_key(std::uint64_t seed, std::size_t round,
                         std::uint64_t id) {
  const std::uint64_t a = seed ^ (static_cast<std::uint64_t>(round) *
                                  0x9e3779b97f4a7c15ULL);
  SplitMix64 sm(a ^ (id + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
  return sm.next();
}

}  // namespace

std::vector<bool> Cohort::mask(std::size_t fleet_size) const {
  std::vector<bool> m(fleet_size, false);
  for (const std::size_t i : indices) {
    FEDRA_EXPECTS(i < fleet_size);
    m[i] = true;
  }
  return m;
}

Cohort sample_cohort(std::size_t fleet_size, std::size_t k,
                     std::uint64_t seed, std::size_t round) {
  const double n = static_cast<double>(fleet_size);
  return detail::sample_cohort_with_cut(
      fleet_size, k, seed, round,
      1.05 * static_cast<double>(k) / n + 64.0 / n);
}

namespace detail {

Cohort sample_cohort_with_cut(std::size_t fleet_size, std::size_t k,
                              std::uint64_t seed, std::size_t round,
                              double cut) {
  FEDRA_EXPECTS(fleet_size > 0 && k > 0);
  Cohort cohort;
  if (k >= fleet_size) {
    cohort.indices.resize(fleet_size);
    for (std::size_t i = 0; i < fleet_size; ++i) cohort.indices[i] = i;
    return cohort;
  }

  // Keys are uniform over 2^64, so about cut * n devices have a key at or
  // below cut * 2^64. When at least k do, the k smallest (key, id) pairs
  // are all among them: rank only those. Otherwise rank the whole fleet.
  // Candidates are collected in id order; nth_element on a copy finds the
  // k-th smallest pair, and one ordered scan keeps the pairs at or below
  // it — exactly k of them (ids are unique), already sorted by id.
  using Ranked = std::pair<std::uint64_t, std::size_t>;
  std::vector<Ranked> ranked;
  if (cut < 1.0) {
    // The candidate count is Binomial(n, cut): mean + 4 sd rarely regrows.
    const double expected = cut * static_cast<double>(fleet_size);
    ranked.reserve(static_cast<std::size_t>(
        expected + 4.0 * std::sqrt(expected) + 64.0));
    const auto key_cut = static_cast<std::uint64_t>(std::ldexp(cut, 64));
    for (std::size_t i = 0; i < fleet_size; ++i) {
      const std::uint64_t key = cohort_key(seed, round, i);
      if (key <= key_cut) ranked.emplace_back(key, i);
    }
  }
  if (ranked.size() < k) {
    ranked.resize(fleet_size);
    for (std::size_t i = 0; i < fleet_size; ++i) {
      ranked[i] = {cohort_key(seed, round, i), i};
    }
  }
  std::vector<Ranked> order(ranked);
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end());
  const Ranked kth = order[k - 1];
  cohort.indices.reserve(k);
  for (const Ranked& r : ranked) {
    if (r <= kth) cohort.indices.push_back(r.second);
  }
  return cohort;
}

}  // namespace detail

}  // namespace fedra

#include "sim/cohort.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace fedra {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// A device's rank key with its id; pairs order by (key, id).
struct Ranked {
  std::uint64_t key;
  std::size_t id;
};

bool operator<(const Ranked& a, const Ranked& b) {
  return (a.key < b.key) | ((a.key == b.key) & (a.id < b.id));
}

/// Candidate (key, id) pairs in id order, as two uninitialized arrays:
/// the hash pass stores into both with plain indexed writes, and nothing
/// is zeroed only to be overwritten.
struct Candidates {
  std::unique_ptr<std::uint64_t[]> key;
  std::unique_ptr<std::size_t[]> id;
  std::size_t capacity = 0;
  std::size_t size = 0;

  /// Grows the arrays to hold at least `want` pairs, keeping the first
  /// `size`.
  void reserve(std::size_t want) {
    if (want <= capacity) return;
    const std::size_t grown = std::max(want, 2 * capacity);
    auto new_key = std::make_unique_for_overwrite<std::uint64_t[]>(grown);
    auto new_id = std::make_unique_for_overwrite<std::size_t[]>(grown);
    std::copy_n(key.get(), size, new_key.get());
    std::copy_n(id.get(), size, new_id.get());
    key = std::move(new_key);
    id = std::move(new_id);
    capacity = grown;
  }
};

/// Ids hashed per step of the candidate loop: each step hashes its ids
/// in one fixed-width lane loop, checks the arrays' room once and
/// write-prefetches one line of each, a few lines ahead of the slot it
/// starts at.
constexpr std::size_t kBlock = 64;

/// detail::cohort_keys as one fixed 64-lane loop over integers only. A
/// device's key is one SplitMix64 step over the order-free (seed, round,
/// id) combine also used by the fault model; the round's share of the
/// combine is hoisted out of the loop (modular addition regroups exactly,
/// so the keys are unchanged). The loop vectorizes wherever 64-bit lanes
/// multiply; no intrinsics, so every build gives the same keys.
[[gnu::always_inline]] inline void cohort_keys_lanes(std::uint64_t seed,
                                                     std::uint64_t round,
                                                     std::uint64_t first_id,
                                                     std::uint64_t* keys) {
  const std::uint64_t a = seed ^ (round * kGolden);
  const std::uint64_t offset = kGolden + (a << 6) + (a >> 2);
  for (std::uint64_t l = 0; l < kBlock; ++l) {
    std::uint64_t z = (a ^ (first_id + l + offset)) + kGolden;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    keys[l] = z ^ (z >> 31);
  }
}

// The AVX-512 build of the same loop, picked by one cached CPU check.
// A plain target attribute rather than target_clones: the ifunc resolver
// of the latter crashes a GCC 12 TSan binary at startup.
#if defined(__x86_64__) && defined(__GNUC__)
#define FEDRA_COHORT_AVX512 1
__attribute__((target("avx512f,avx512dq"))) void cohort_keys_avx512(
    std::uint64_t seed, std::uint64_t round, std::uint64_t first_id,
    std::uint64_t* keys) {
  cohort_keys_lanes(seed, round, first_id, keys);
}

bool has_avx512() {
  static const bool yes = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512dq");
  return yes;
}
#else
#define FEDRA_COHORT_AVX512 0
#endif

/// Sets `out` to the (key, id) pairs whose key is at most `key_cut`, in id
/// order. Each block of 64 ids is hashed into a stack buffer by the lane
/// loop (a tail block hashes ids past the fleet too and ignores them).
/// Every pair is then stored and the write slot advances only past those
/// that pass, so the loop has no branch on the key. Memory safety does
/// not rest on the caller's sizing: each block of ids first makes room for
/// all of its pairs. The prefetch matters because the arrays are cold
/// after a round's pricing, and a store stream that reaches a new line
/// only every ~80 ids otherwise stalls on each line's miss.
void collect_candidates(Candidates& out, std::size_t fleet_size,
                        std::uint64_t seed, std::size_t round,
                        std::uint64_t key_cut) {
  std::uint64_t block_keys[kBlock];
  std::size_t m = 0;
  for (std::size_t begin = 0; begin < fleet_size; begin += kBlock) {
    const std::size_t end = std::min(fleet_size, begin + kBlock);
    if (out.capacity - m < end - begin) {
      out.size = m;
      out.reserve(m + (end - begin));
    }
    std::uint64_t* keys = out.key.get();
    std::size_t* ids = out.id.get();
    const std::size_t ahead = std::min(m + 32, out.capacity - 1);
    __builtin_prefetch(keys + ahead, 1);
    __builtin_prefetch(ids + ahead, 1);
    detail::cohort_keys(seed, round, begin, block_keys);
#pragma GCC unroll 4
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t key = block_keys[i - begin];
      keys[m] = key;
      ids[m] = i;
      m += key <= key_cut;
    }
  }
  out.size = m;
}

/// The k-th smallest candidate pair; every key lies in [0, key_cut]. A
/// histogram over the top bits of that range is monotone in (key, id), so
/// the k-th pair lies in the one bucket where the running count reaches
/// k, and nth_element runs over that bucket's pairs alone (over all of
/// them when there are too few candidates to split).
Ranked kth_smallest(const Candidates& cand, std::size_t k,
                    std::uint64_t key_cut) {
  // About 32 pairs per bucket, in 2 to 2^14 buckets.
  const int bits =
      std::clamp(static_cast<int>(std::bit_width(cand.size / 32)), 1, 14);
  const int shift =
      std::max(static_cast<int>(std::bit_width(key_cut)) - bits, 0);
  std::vector<std::size_t> count(std::size_t{1} << bits, 0);
  for (std::size_t i = 0; i < cand.size; ++i) ++count[cand.key[i] >> shift];
  std::size_t bucket = 0;
  std::size_t before = 0;
  while (before + count[bucket] < k) before += count[bucket++];
  std::vector<Ranked> in_bucket;
  in_bucket.reserve(count[bucket]);
  for (std::size_t i = 0; i < cand.size; ++i) {
    if ((cand.key[i] >> shift) == bucket) {
      in_bucket.push_back({cand.key[i], cand.id[i]});
    }
  }
  const auto nth =
      in_bucket.begin() + static_cast<std::ptrdiff_t>(k - 1 - before);
  std::nth_element(in_bucket.begin(), nth, in_bucket.end());
  return *nth;
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

void cohort_keys(std::uint64_t seed, std::uint64_t round,
                 std::uint64_t first_id, std::uint64_t* keys) {
#if FEDRA_COHORT_AVX512
  if (has_avx512()) return cohort_keys_avx512(seed, round, first_id, keys);
#endif
  cohort_keys_lanes(seed, round, first_id, keys);
}

void cohort_keys_reference(std::uint64_t seed, std::uint64_t round,
                           std::uint64_t first_id, std::uint64_t* keys) {
  const std::uint64_t a = seed ^ (round * kGolden);
  for (std::uint64_t l = 0; l < kBlock; ++l) {
    SplitMix64 sm(a ^ ((first_id + l) + kGolden + (a << 6) + (a >> 2)));
    keys[l] = sm.next();
  }
}

Cohort sample_cohort_with_cut(std::size_t fleet_size, std::size_t k,
                              std::uint64_t seed, std::size_t round,
                              double cut) {
  FEDRA_EXPECTS(fleet_size > 0 && k > 0 && cut >= 0.0);
  Cohort cohort;
  if (k >= fleet_size) {
    cohort.indices.resize(fleet_size);
    for (std::size_t i = 0; i < fleet_size; ++i) cohort.indices[i] = i;
    return cohort;
  }

  // Keys are uniform over 2^64, so about cut * n devices have a key at or
  // below cut * 2^64. When at least k do, the k smallest (key, id) pairs
  // are all among them: rank only those. Otherwise rank the whole fleet.
  Candidates cand;
  std::uint64_t key_cut = std::numeric_limits<std::uint64_t>::max();
  if (cut < 1.0) {
    // Binomial(n, cut) candidates: mean + 4 sd rarely regrows the arrays.
    const double expected = cut * static_cast<double>(fleet_size);
    const double sized = expected + 4.0 * std::sqrt(expected) + 64.0;
    cand.reserve(std::min(fleet_size, static_cast<std::size_t>(sized)));
    key_cut = static_cast<std::uint64_t>(std::ldexp(cut, 64));
    collect_candidates(cand, fleet_size, seed, round, key_cut);
  }
  if (cand.size < k) {
    key_cut = std::numeric_limits<std::uint64_t>::max();
    cand = Candidates{};
    cand.reserve(fleet_size);
    collect_candidates(cand, fleet_size, seed, round, key_cut);
  }

  // The candidates are in id order, so one ordered scan that keeps the
  // pairs at or below the k-th smallest yields exactly k ids (ids are
  // unique), already sorted. The slot after the k-th absorbs the
  // unconditional writes of the pairs that follow it.
  const Ranked kth = kth_smallest(cand, k, key_cut);
  cohort.indices.resize(k + 1);
  std::size_t taken = 0;
  for (std::size_t i = 0; i < cand.size; ++i) {
    cohort.indices[taken] = cand.id[i];
    taken += !(kth < Ranked{cand.key[i], cand.id[i]});
  }
  cohort.indices.resize(k);
  return cohort;
}

}  // namespace detail

}  // namespace fedra

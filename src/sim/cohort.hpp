// Cohort sampling — the bridge between fleet-scale pricing and
// testbed-scale training.
//
// At population scale the server does not train every device each round:
// FedAvg aggregates a sampled cohort, while the cost model (and the DRL
// controller's reward) still prices the full fleet's round. sample_cohort
// picks k of n devices per (seed, round) by ranking a per-device
// SplitMix64 key — a pure function of (seed, round, device_id), so the
// cohort is independent of iteration order, device count elsewhere, and
// platform, and two shards sampling the same round agree without
// coordination. One branchless pass hashes every device and keeps the
// about 1.05 k + 64 candidates under a key cut, in id order. It hashes 64
// ids at a time in a fixed lane loop that is built twice, for the
// baseline ISA and for AVX-512, and picked by one cached CPU check; the
// loop is integer-only, so both builds give the same keys. A histogram
// over the candidates' keys finds the bucket holding the k-th smallest,
// which alone is partially sorted. One ordered scan then keeps the k
// winners, so they come out sorted by id without a sort, ready to drive a
// StepOptions participation mask (which the round engine prices at
// O(cohort) past one crash-chain word step per 64 devices) or an
// fl::FedAvg roster.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedra {

/// A sampled per-round training cohort: `indices` are the chosen device
/// ids in increasing order.
struct Cohort {
  std::vector<std::size_t> indices;

  std::size_t size() const { return indices.size(); }
  bool empty() const { return indices.empty(); }

  /// Participation mask over an n-device fleet (true = in the cohort) —
  /// the shape StepOptions::participating consumes.
  std::vector<bool> mask(std::size_t fleet_size) const;
};

/// Samples k of `fleet_size` devices for `round`. Deterministic in
/// (seed, round): device i's rank key is a SplitMix64 hash of the triple,
/// ties broken by id, the k smallest win. k >= fleet_size returns everyone.
Cohort sample_cohort(std::size_t fleet_size, std::size_t k,
                     std::uint64_t seed, std::size_t round);

namespace detail {

/// sample_cohort with an explicit candidate cut >= 0, as a fraction of
/// the key space: only devices whose key is at most cut * 2^64 are ranked,
/// and the whole fleet is ranked when fewer than k pass (or cut >= 1).
/// The result is the same for every cut; sample_cohort picks one that
/// about 1.05 k + 64 devices pass. Exposed so tests can drive both paths.
Cohort sample_cohort_with_cut(std::size_t fleet_size, std::size_t k,
                              std::uint64_t seed, std::size_t round,
                              double cut);

/// The rank keys of the 64 devices first_id, first_id + 1, ... (mod 2^64)
/// for (seed, round) into keys[0, 64), through the lane-loop build this
/// CPU runs.
void cohort_keys(std::uint64_t seed, std::uint64_t round,
                 std::uint64_t first_id, std::uint64_t* keys);

/// cohort_keys one device at a time through SplitMix64 — its oracle.
void cohort_keys_reference(std::uint64_t seed, std::uint64_t round,
                           std::uint64_t first_id, std::uint64_t* keys);

}  // namespace detail

}  // namespace fedra

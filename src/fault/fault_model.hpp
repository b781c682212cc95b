// Fault injection for federated iterations (fedra::fault).
//
// Real mobile FL deployments are dominated by client churn: devices drop
// off mid-round, background load turns them into stragglers, radios lose
// coverage, uploads fail and must be retried. The paper's synchronized
// iteration (Eq. 5) is gated by the slowest device, so these failure
// modes are exactly what a resource-allocation policy must be robust to
// — yet a fault-free simulator never shows them to the learner.
//
// FaultModel draws a per-device fault assignment for every iteration:
//
//   dropout        — the device vanishes mid-round at a random fraction of
//                    its timeline; its update is lost, the energy it spent
//                    up to that point is still charged;
//   straggler      — multiplicative compute/upload degradation for one
//                    round (background load, thermal throttling);
//   crash + rejoin — a two-state Markov chain per device: a crashed device
//                    sits out whole rounds until it rejoins;
//   blackout       — a bandwidth blackout window (radio outage) applied to
//                    the device's trace for this round;
//   upload failure — each upload attempt fails independently; failures are
//                    retried with exponential backoff up to `max_retries`
//                    times, after which the update is lost.
//
// Determinism: every draw comes from an Rng seeded by a hash of
// (model seed, iteration, device), so the fault sequence is a pure
// function of the seed and the crash-state history — independent of how
// many devices exist elsewhere, of call interleaving, and of platform.
// Same seed + same config => bit-identical fault sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace fedra::fault {

/// Per-round, per-device fault probabilities and magnitudes. All
/// probabilities are evaluated independently each round; 0 disables the
/// corresponding fault class.
struct FaultConfig {
  /// P(device vanishes mid-round). The vanish point is uniform over the
  /// device's round timeline.
  double dropout_prob = 0.0;
  /// P(device is a straggler this round); slowdown factors are drawn
  /// uniformly from [min_slowdown, max_slowdown] for compute and upload
  /// independently.
  double straggler_prob = 0.0;
  double min_slowdown = 1.5;
  double max_slowdown = 4.0;
  /// Crash-and-rejoin Markov chain: healthy -> crashed with crash_prob,
  /// crashed -> healthy with rejoin_prob, evaluated once per round.
  double crash_prob = 0.0;
  double rejoin_prob = 0.25;
  /// P(a bandwidth blackout window hits this device's round). The window
  /// starts uniformly in [0, blackout_max_offset_s] after the round start
  /// and lasts blackout_duration_s * U(0.5, 1.5).
  double blackout_prob = 0.0;
  double blackout_duration_s = 30.0;
  double blackout_max_offset_s = 30.0;
  /// P(one upload attempt fails). Failed attempts back off
  /// retry_backoff_s * 2^k before attempt k+1; after max_retries retries
  /// (at most 64, so every backoff factor fits a 64-bit shift) the update
  /// is abandoned.
  double upload_failure_prob = 0.0;
  std::size_t max_retries = 2;
  double retry_backoff_s = 1.0;

  /// True when any fault class has non-zero probability.
  bool any_enabled() const;
};

/// Fault assignment of one device in one round. Default-constructed =
/// healthy (no fault).
struct DeviceFault {
  bool crashed = false;       ///< out for the whole round
  bool dropout = false;       ///< vanishes mid-round
  double dropout_frac = 1.0;  ///< fraction of its timeline completed at vanish
  double compute_slowdown = 1.0;
  double upload_slowdown = 1.0;
  double blackout_offset = 0.0;    ///< seconds after round start
  double blackout_duration = 0.0;  ///< 0 = no blackout
  std::size_t failed_uploads = 0;  ///< failed attempts before success/abandon
  bool upload_exhausted = false;   ///< all retries failed; update lost
  double retry_backoff_s = 1.0;    ///< base of the exponential backoff

  /// True when this assignment perturbs the device's round in any way.
  bool faulty() const {
    return crashed || dropout || compute_slowdown != 1.0 ||
           upload_slowdown != 1.0 || blackout_duration > 0.0 ||
           failed_uploads > 0 || upload_exhausted;
  }
};

/// Fault assignment of one full round.
struct RoundFaults {
  std::vector<DeviceFault> devices;

  bool any() const {
    for (const auto& d : devices) {
      if (d.faulty()) return true;
    }
    return false;
  }
};

class FaultModel {
 public:
  /// Disabled model: never injects anything. This is the default fault
  /// context of StepOptions, so `step(freqs, {})` is fault-free.
  FaultModel() = default;

  FaultModel(FaultConfig config, std::uint64_t seed);

  /// False for default-constructed models and configs with every
  /// probability zero.
  bool enabled() const { return enabled_ && config_.any_enabled(); }
  const FaultConfig& config() const { return config_; }
  std::uint64_t seed() const { return seed_; }

  /// Draws the fault assignment for `iteration` WITHOUT evolving the
  /// crash chain (used by previews / dry runs).
  RoundFaults peek(std::size_t iteration, std::size_t num_devices) const;

  /// The per-device reference draw: writes devices [begin, end) of
  /// `iteration`'s assignment into round->devices (sized >= end) at their
  /// own indices, reading the prior crash state from `was_crashed`
  /// (indices past its size = healthy) and writing the evolved state into
  /// `now_crashed` (sized >= end) when non-null; the two may be the same
  /// vector. Each device is a pure function of (seed, iteration, device,
  /// its own prior crash bit), so disjoint ranges commute. No-op when the
  /// model is disabled.
  void draw_range(std::size_t iteration, std::size_t begin, std::size_t end,
                  const std::vector<bool>& was_crashed, RoundFaults* round,
                  std::vector<bool>* now_crashed) const;

  /// The round engine's draw over a crash chain stored as 64-device words
  /// (device i is bit i % 64 of word i / 64; words past `was`'s size are
  /// healthy). First the members: out[j] is the fault of device
  /// begin + members[j], its chain step read from `was`. Then, when `now`
  /// is non-null (covering >= end devices), every device of [begin, end)
  /// steps its chain into `now`, 64 devices per word for aligned words;
  /// bits of `now` outside the range are kept. `was` and `now` may be the
  /// same vector, since each word is read before it is written. The bits
  /// equal draw_range's for every member and every chain state. No-op when
  /// the model is disabled.
  /// NOTE: concurrent writers of one `now` must use ranges that start and
  /// end on 64-device multiples (or at the chain's end), so that each
  /// writes its own words.
  void draw_block(std::size_t iteration, std::size_t begin, std::size_t end,
                  const std::vector<std::uint64_t>& was,
                  std::span<const std::size_t> members, DeviceFault* out,
                  std::vector<std::uint64_t>* now) const;

  /// The crash chain's words, sized for at least `num_devices`, for
  /// callers that advance it in place with draw_block (was and now both
  /// the chain). Call once, serially, before concurrent block draws.
  std::vector<std::uint64_t>& chain_for(std::size_t num_devices);

  /// The crash chain's words as they stand (bits past the chain's size are
  /// zero).
  const std::vector<std::uint64_t>& crash_words() const { return crashed_; }

  /// Draws the fault assignment for `iteration` and advances the crash
  /// chain through the per-device reference draw. Call once per real
  /// simulator step, in iteration order.
  RoundFaults advance(std::size_t iteration, std::size_t num_devices);

  /// Clears the crash chain (all devices healthy), e.g. to replay a run.
  void reset() {
    crashed_.clear();
    chain_size_ = 0;
  }

  /// Devices currently down (crash chain state).
  std::size_t num_crashed() const;

  // Crash-chain snapshot/restore, one entry per device the chain covers.
  // The chain is the ONLY mutable state — everything else is a pure
  // function of (seed, iteration, device) — so restoring it resumes the
  // fault sequence bit-exactly.
  std::vector<bool> crash_state() const;
  void set_crash_state(std::vector<bool> state);

 private:
  /// A device's fault given its crash-chain draw, continuing the same
  /// stream after that draw.
  DeviceFault draw_rest(Rng& rng, bool crashed) const;

  /// One device's chain step on its stream's first uniform u.
  bool chain_step(bool was, double u) const {
    return was ? !(u < config_.rejoin_prob) : u < config_.crash_prob;
  }

  FaultConfig config_;
  std::uint64_t seed_ = 0;
  bool enabled_ = false;
  std::vector<std::uint64_t> crashed_;  ///< crash-chain words, lazily sized
  std::size_t chain_size_ = 0;          ///< devices the chain covers
};

}  // namespace fedra::fault

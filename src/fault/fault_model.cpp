#include "fault/fault_model.hpp"

#include <bit>
#include <cmath>

#include "util/contracts.hpp"

namespace fedra::fault {

namespace {

/// Order-free hash combine: the per-(iteration, device) stream seed must
/// not depend on draw order or device count, only on the identifiers.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
  return sm.next();
}

/// The first output of Rng(seed) >> 11, in closed form: xoshiro256**'s
/// first output reads only s[1], the second SplitMix64 word of the seed,
/// so the other three state words need not be built. Times 2^-53 it is
/// the stream's first uniform().
std::uint64_t first_draw(std::uint64_t seed) {
  std::uint64_t z = seed + 2 * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  const std::uint64_t s1 = (z ^ (z >> 31)) * 5;
  return (((s1 << 7) | (s1 >> 57)) * 9) >> 11;
}

/// ceil(p * 2^53): for an integer x < 2^53, x * 2^-53 < p iff x < cut.
/// Scaling by a power of two is exact, so the cut is too.
std::uint64_t cut_of(double p) {
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

}  // namespace

bool FaultConfig::any_enabled() const {
  return dropout_prob > 0.0 || straggler_prob > 0.0 || crash_prob > 0.0 ||
         blackout_prob > 0.0 || upload_failure_prob > 0.0;
}

FaultModel::FaultModel(FaultConfig config, std::uint64_t seed)
    : config_(config), seed_(seed), enabled_(true) {
  FEDRA_EXPECTS(config.dropout_prob >= 0.0 && config.dropout_prob <= 1.0);
  FEDRA_EXPECTS(config.straggler_prob >= 0.0 && config.straggler_prob <= 1.0);
  FEDRA_EXPECTS(config.crash_prob >= 0.0 && config.crash_prob <= 1.0);
  FEDRA_EXPECTS(config.rejoin_prob >= 0.0 && config.rejoin_prob <= 1.0);
  FEDRA_EXPECTS(config.blackout_prob >= 0.0 && config.blackout_prob <= 1.0);
  FEDRA_EXPECTS(config.upload_failure_prob >= 0.0 &&
                config.upload_failure_prob <= 1.0);
  FEDRA_EXPECTS(config.min_slowdown >= 1.0);
  FEDRA_EXPECTS(config.max_slowdown >= config.min_slowdown);
  FEDRA_EXPECTS(config.blackout_duration_s >= 0.0);
  FEDRA_EXPECTS(config.blackout_max_offset_s >= 0.0);
  FEDRA_EXPECTS(config.retry_backoff_s >= 0.0);
  FEDRA_EXPECTS(config.max_retries <= 64);
}

DeviceFault FaultModel::draw_rest(Rng& rng, bool crashed) const {
  DeviceFault f;
  f.retry_backoff_s = config_.retry_backoff_s;
  // A down device draws nothing else this round.
  if (crashed) {
    f.crashed = true;
    return f;
  }

  if (config_.dropout_prob > 0.0 && rng.bernoulli(config_.dropout_prob)) {
    f.dropout = true;
    // Not too close to either end: a vanish at 0 is a crash, at 1 a no-op.
    f.dropout_frac = rng.uniform(0.05, 0.95);
  }
  if (config_.straggler_prob > 0.0 && rng.bernoulli(config_.straggler_prob)) {
    f.compute_slowdown =
        rng.uniform(config_.min_slowdown, config_.max_slowdown);
    f.upload_slowdown =
        rng.uniform(config_.min_slowdown, config_.max_slowdown);
  }
  if (config_.blackout_prob > 0.0 && rng.bernoulli(config_.blackout_prob)) {
    f.blackout_offset = rng.uniform(0.0, config_.blackout_max_offset_s);
    f.blackout_duration = config_.blackout_duration_s * rng.uniform(0.5, 1.5);
  }
  if (config_.upload_failure_prob > 0.0) {
    while (f.failed_uploads <= config_.max_retries &&
           rng.bernoulli(config_.upload_failure_prob)) {
      ++f.failed_uploads;
    }
    f.upload_exhausted = f.failed_uploads > config_.max_retries;
  }
  return f;
}

void FaultModel::draw_range(std::size_t iteration, std::size_t begin,
                            std::size_t end,
                            const std::vector<bool>& was_crashed,
                            RoundFaults* round,
                            std::vector<bool>* now_crashed) const {
  FEDRA_EXPECTS(begin <= end);
  FEDRA_EXPECTS(round != nullptr && round->devices.size() >= end);
  FEDRA_EXPECTS(now_crashed == nullptr || now_crashed->size() >= end);
  if (!enabled()) return;
  const std::uint64_t round_seed = mix(seed_, iteration);
  // Each index is read before its own (possibly aliased) write and never
  // touched by another iteration.
  for (std::size_t i = begin; i < end; ++i) {
    Rng rng(mix(round_seed, i));
    const bool was = i < was_crashed.size() && was_crashed[i];
    const bool now = chain_step(was, rng.uniform());
    round->devices[i] = draw_rest(rng, now);
    if (now_crashed != nullptr) (*now_crashed)[i] = now;
  }
}

void FaultModel::draw_block(std::size_t iteration, std::size_t begin,
                            std::size_t end,
                            const std::vector<std::uint64_t>& was,
                            std::span<const std::size_t> members,
                            DeviceFault* out,
                            std::vector<std::uint64_t>* now) const {
  FEDRA_EXPECTS(begin <= end);
  FEDRA_EXPECTS(now == nullptr || now->size() * 64 >= end);
  if (!enabled()) return;
  const std::uint64_t round_seed = mix(seed_, iteration);
  const auto was_word = [&was](std::size_t w) {
    return w < was.size() ? was[w] : std::uint64_t{0};
  };
  const auto was_bit = [&](std::size_t i) {
    return ((was_word(i / 64) >> (i % 64)) & 1) != 0;
  };

  // The members' full faults, each from its own stream: the first draw
  // steps its chain, the rest is its fault.
  for (std::size_t j = 0; j < members.size(); ++j) {
    FEDRA_EXPECTS(members[j] < end - begin);
    const std::size_t i = begin + members[j];
    Rng rng(mix(round_seed, i));
    out[j] = draw_rest(rng, chain_step(was_bit(i), rng.uniform()));
  }
  if (now == nullptr) return;

  // Every device's chain step, on the first draw alone. A device before
  // the range's first word boundary steps by itself.
  std::vector<std::uint64_t>& chain = *now;
  std::size_t i = begin;
  for (; i < end && i % 64 != 0; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    const double u =
        static_cast<double>(first_draw(mix(round_seed, i))) * 0x1.0p-53;
    const bool crashed = chain_step(was_bit(i), u);
    chain[i / 64] = crashed ? chain[i / 64] | bit : chain[i / 64] & ~bit;
  }
  // The rest 64 at a time, in the integer domain: with x a device's first
  // draw, a healthy device crashes when x < crash_cut and a crashed one
  // stays down when x >= rejoin_cut, so now = was ? stay : crash, per
  // bit. A tail word keeps its bits at and past `end`.
  const std::uint64_t crash_cut = cut_of(config_.crash_prob);
  const std::uint64_t rejoin_cut = cut_of(config_.rejoin_prob);
  for (; i < end; i += 64) {
    std::uint64_t crash = 0;
    std::uint64_t stay = 0;
    for (std::uint64_t l = 0; l < 64; ++l) {
      const std::uint64_t x = first_draw(mix(round_seed, i + l));
      crash |= static_cast<std::uint64_t>(x < crash_cut) << l;
      stay |= static_cast<std::uint64_t>(x >= rejoin_cut) << l;
    }
    const std::uint64_t w = was_word(i / 64);
    const std::uint64_t stepped = (w & stay) | (~w & crash);
    const std::uint64_t lanes = end - i < 64
                                    ? (std::uint64_t{1} << (end - i)) - 1
                                    : ~std::uint64_t{0};
    chain[i / 64] = (chain[i / 64] & ~lanes) | (stepped & lanes);
  }
}

std::vector<std::uint64_t>& FaultModel::chain_for(std::size_t num_devices) {
  if (chain_size_ < num_devices) {
    chain_size_ = num_devices;
    crashed_.resize((num_devices + 63) / 64, 0);
  }
  return crashed_;
}

RoundFaults FaultModel::peek(std::size_t iteration,
                             std::size_t num_devices) const {
  RoundFaults round;
  round.devices.resize(num_devices);
  draw_range(iteration, 0, num_devices, crash_state(), &round, nullptr);
  return round;
}

RoundFaults FaultModel::advance(std::size_t iteration,
                                std::size_t num_devices) {
  RoundFaults round;
  round.devices.resize(num_devices);
  if (enabled()) {
    std::vector<bool> chain = crash_state();
    if (chain.size() < num_devices) chain.resize(num_devices);
    draw_range(iteration, 0, num_devices, chain, &round, &chain);
    set_crash_state(std::move(chain));
  }
  return round;
}

std::size_t FaultModel::num_crashed() const {
  std::size_t n = 0;
  for (const std::uint64_t w : crashed_) n += std::popcount(w);
  return n;
}

std::vector<bool> FaultModel::crash_state() const {
  std::vector<bool> state(chain_size_);
  for (std::size_t i = 0; i < chain_size_; ++i) {
    state[i] = ((crashed_[i / 64] >> (i % 64)) & 1) != 0;
  }
  return state;
}

void FaultModel::set_crash_state(std::vector<bool> state) {
  chain_size_ = state.size();
  crashed_.assign((chain_size_ + 63) / 64, 0);
  for (std::size_t i = 0; i < chain_size_; ++i) {
    if (state[i]) crashed_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

}  // namespace fedra::fault

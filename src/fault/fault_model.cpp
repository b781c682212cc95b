#include "fault/fault_model.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fedra::fault {

namespace {

/// Order-free hash combine: the per-(iteration, device) stream seed must
/// not depend on draw order or device count, only on the identifiers.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
  return sm.next();
}

double clamp_prob(double p) { return std::clamp(p, 0.0, 1.0); }

/// The first uniform() of Rng(seed), in closed form: xoshiro256**'s first
/// output reads only s[1], the second SplitMix64 word of the seed, so the
/// other three state words need not be built.
double first_uniform(std::uint64_t seed) {
  std::uint64_t z = seed + 2 * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  const std::uint64_t s1 = (z ^ (z >> 31)) * 5;
  const std::uint64_t out = ((s1 << 7) | (s1 >> 57)) * 9;
  return static_cast<double>(out >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultConfig::any_enabled() const {
  return dropout_prob > 0.0 || straggler_prob > 0.0 || crash_prob > 0.0 ||
         blackout_prob > 0.0 || upload_failure_prob > 0.0;
}

FaultConfig FaultConfig::scaled(double factor) const {
  FEDRA_EXPECTS(factor >= 0.0);
  FaultConfig out = *this;
  out.dropout_prob = clamp_prob(dropout_prob * factor);
  out.straggler_prob = clamp_prob(straggler_prob * factor);
  out.crash_prob = clamp_prob(crash_prob * factor);
  out.blackout_prob = clamp_prob(blackout_prob * factor);
  out.upload_failure_prob = clamp_prob(upload_failure_prob * factor);
  return out;
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

void FaultModel::draw_block(std::size_t iteration, std::size_t begin,
                            std::size_t end,
                            const std::vector<bool>& was_crashed,
                            const std::vector<bool>* participating,
                            DeviceFault* out,
                            std::vector<bool>* now_crashed) const {
  FEDRA_EXPECTS(begin <= end);
  FEDRA_EXPECTS(participating == nullptr || participating->size() >= end);
  FEDRA_EXPECTS(now_crashed == nullptr || now_crashed->size() >= end);
  if (!enabled()) return;
  const std::uint64_t round_seed = mix(seed_, iteration);
  // Loaded once: the compiler must assume a chain write below changes any
  // of them, and it may indeed alias was_crashed.
  const double crash_prob = config_.crash_prob;
  const double rejoin_prob = config_.rejoin_prob;
  const std::size_t was_end = std::min(end, was_crashed.size());
  // The crash-chain step on the stream's first draw u (bernoulli(p) is
  // u < p). Each index is read before its own (possibly aliased) write
  // and never touched by another iteration.
  const auto chain_step = [&](std::size_t i, double u) {
    const bool was = i < was_end && was_crashed[i];
    return was ? !(u < rejoin_prob) : u < crash_prob;
  };
  // A drawn device: its chain step, then its fault from the rest of the
  // stream. Returns the new crash state.
  const auto draw = [&](std::size_t i, std::uint64_t stream) {
    Rng rng(stream);
    const bool now = chain_step(i, rng.uniform());
    out[i - begin] = draw_rest(rng, now);
    return now;
  };
  const auto drawn = [participating](std::size_t i) {
    return participating == nullptr || (*participating)[i];
  };
  if (now_crashed == nullptr) {
    // A dry run leaves the chain alone: visit only the drawn devices.
    for (std::size_t i = begin; i < end; ++i) {
      if (drawn(i)) draw(i, mix(round_seed, i));
    }
    return;
  }
  // Every device steps its chain here, so this loop is kept apart from
  // the dry run's: the extra branches cost a fifth of its time. A
  // non-participant's fault is never read, so it only steps the chain, on
  // the closed-form first uniform.
  std::vector<bool>& chain = *now_crashed;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t stream = mix(round_seed, i);
    chain[i] = drawn(i) ? draw(i, stream)
                        : chain_step(i, first_uniform(stream));
  }
}

void FaultModel::draw_range(std::size_t iteration, std::size_t begin,
                            std::size_t end,
                            const std::vector<bool>& was_crashed,
                            RoundFaults* round,
                            std::vector<bool>* now_crashed) const {
  FEDRA_EXPECTS(round != nullptr && round->devices.size() >= end);
  draw_block(iteration, begin, end, was_crashed, nullptr,
             round->devices.data() + begin, now_crashed);
}

std::vector<bool>& FaultModel::chain_for(std::size_t num_devices) {
  if (crashed_.size() < num_devices) crashed_.resize(num_devices);
  return crashed_;
}

RoundFaults FaultModel::peek(std::size_t iteration,
                             std::size_t num_devices) const {
  RoundFaults round;
  round.devices.resize(num_devices);
  draw_range(iteration, 0, num_devices, crashed_, &round, nullptr);
  return round;
}

RoundFaults FaultModel::advance(std::size_t iteration,
                                std::size_t num_devices) {
  RoundFaults round;
  round.devices.resize(num_devices);
  if (enabled()) {
    draw_range(iteration, 0, num_devices, crashed_, &round,
               &chain_for(num_devices));
  }
  return round;
}

std::size_t FaultModel::num_crashed() const {
  return static_cast<std::size_t>(
      std::count(crashed_.begin(), crashed_.end(), true));
}

}  // namespace fedra::fault

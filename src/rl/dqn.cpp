#include "rl/dqn.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "util/contracts.hpp"

namespace fedra {

namespace {
std::vector<std::size_t> net_sizes(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

Mlp make_net(std::size_t sdim, std::size_t out, const DqnConfig& cfg,
             std::uint64_t seed) {
  Rng rng(seed);
  return Mlp(net_sizes(sdim, cfg.hidden, out), Activation::ReLU, rng);
}
}  // namespace

FactoredDqnAgent::FactoredDqnAgent(std::size_t state_dim,
                                   std::size_t num_devices,
                                   const DqnConfig& config,
                                   std::uint64_t seed)
    : state_dim_(state_dim),
      devices_(num_devices),
      config_(config),
      online_(make_net(state_dim, num_devices * config.levels, config, seed)),
      target_(make_net(state_dim, num_devices * config.levels, config, seed)),
      opt_(online_, config.lr),
      replay_(config.replay_capacity) {
  FEDRA_EXPECTS(state_dim > 0 && num_devices > 0);
  FEDRA_EXPECTS(config.levels >= 2);
  FEDRA_EXPECTS(config.gamma >= 0.0 && config.gamma < 1.0);
  FEDRA_EXPECTS(config.epsilon_start >= config.epsilon_end);
  FEDRA_EXPECTS(config.epsilon_decay_steps > 0);
}

double FactoredDqnAgent::fraction_of(std::size_t level) const {
  FEDRA_EXPECTS(level < config_.levels);
  return static_cast<double>(level + 1) /
         static_cast<double>(config_.levels);
}

std::size_t FactoredDqnAgent::level_of(double fraction) const {
  const auto level = static_cast<std::size_t>(std::llround(
      fraction * static_cast<double>(config_.levels) - 1.0));
  FEDRA_EXPECTS(level < config_.levels);
  return level;
}

Matrix FactoredDqnAgent::q_values(const std::vector<double>& state) {
  FEDRA_EXPECTS(state.size() == state_dim_);
  infer_in_.resize_reuse(1, state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j) infer_in_(0, j) = state[j];
  Matrix out = online_.forward_cached(infer_in_, infer_ws_);
  out.reshape(devices_, config_.levels);
  return out;
}

std::vector<double> FactoredDqnAgent::act(const std::vector<double>& state) {
  Matrix q = q_values(state);
  std::vector<double> fractions(devices_);
  for (std::size_t i = 0; i < devices_; ++i) {
    fractions[i] = fraction_of(argmax_row(q, i));
  }
  return fractions;
}

double FactoredDqnAgent::current_epsilon() const {
  const double progress =
      std::min(1.0, static_cast<double>(env_steps_) /
                        static_cast<double>(config_.epsilon_decay_steps));
  return config_.epsilon_start +
         progress * (config_.epsilon_end - config_.epsilon_start);
}

std::vector<double> FactoredDqnAgent::act_epsilon_greedy(
    const std::vector<double>& state, Rng& rng) {
  const double eps = current_epsilon();
  ++env_steps_;
  Matrix q = q_values(state);
  std::vector<double> fractions(devices_);
  for (std::size_t i = 0; i < devices_; ++i) {
    if (rng.bernoulli(eps)) {
      fractions[i] = fraction_of(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(config_.levels) - 1)));
    } else {
      fractions[i] = fraction_of(argmax_row(q, i));
    }
  }
  return fractions;
}

void FactoredDqnAgent::remember(OffPolicyTransition t) {
  replay_.push(std::move(t));
}

DqnStats FactoredDqnAgent::update(Rng& rng) {
  DqnStats stats;
  stats.epsilon = current_epsilon();
  if (replay_.size() < std::max(config_.warmup, config_.batch_size)) {
    return stats;
  }
  const auto batch = replay_.sample(config_.batch_size, rng);
  const std::size_t n = batch.states.rows();
  const std::size_t L = config_.levels;
  const double inv = 1.0 / static_cast<double>(n * devices_);

  // Per-device bootstrapped targets from the target network.
  const Matrix& next_q =
      target_.forward_cached(batch.next_states, target_ws_);  // n x devices*L
  online_.zero_grad();
  const Matrix& q = online_.forward_cached(batch.states, ws_);
  Matrix grad(n, devices_ * L);
  double loss = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t i = 0; i < devices_; ++i) {
      double best_next = -1e300;
      for (std::size_t l = 0; l < L; ++l) {
        best_next = std::max(best_next, next_q(b, i * L + l));
      }
      const double target =
          batch.rewards[b] + config_.gamma * best_next;
      const std::size_t a = level_of(batch.actions(b, i));
      const double err = q(b, i * L + a) - target;
      loss += err * err * inv;
      grad(b, i * L + a) = 2.0 * err * inv;
    }
  }
  online_.backward_cached(grad, ws_);
  opt_.step();
  stats.td_loss = loss;

  ++updates_;
  if (updates_ % config_.target_sync_every == 0) {
    target_.copy_params_from(online_);
  }
  return stats;
}

}  // namespace fedra

#include "rl/a2c.hpp"

#include <algorithm>
#include <cmath>

#include "rl/gae.hpp"
#include "util/contracts.hpp"

namespace fedra {

namespace {
std::vector<std::size_t> critic_sizes(std::size_t state_dim,
                                      const std::vector<std::size_t>& hidden) {
  std::vector<std::size_t> sizes;
  sizes.push_back(state_dim);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(1);
  return sizes;
}
}  // namespace

A2cAgent::A2cAgent(std::size_t state_dim, std::size_t action_dim,
                   const PolicyConfig& policy_config, const PpoConfig& config,
                   std::uint64_t seed)
    : config_(config),
      policy_([&] {
        Rng rng(seed);
        return GaussianPolicy(state_dim, action_dim, policy_config, rng);
      }()),
      critic_([&] {
        Rng rng(seed ^ 0xda3e39cb94b95bdbULL);
        return Mlp(critic_sizes(state_dim, config.critic_hidden),
                   config.critic_activation, rng);
      }()),
      actor_opt_(policy_.params(), policy_.grads(), config.actor_lr),
      critic_opt_(critic_, config.critic_lr) {}

PolicySample A2cAgent::act(const std::vector<double>& state, Rng& rng) {
  return policy_.act(state, rng);
}

std::vector<double> A2cAgent::mean_action(const std::vector<double>& state) {
  return policy_.mean_action(state);
}

double A2cAgent::value(const std::vector<double>& state) {
  critic_infer_in_.resize_reuse(1, state.size());
  for (std::size_t j = 0; j < state.size(); ++j) {
    critic_infer_in_(0, j) = state[j];
  }
  return critic_.forward_cached(critic_infer_in_, critic_infer_ws_)(0, 0);
}

UpdateStats A2cAgent::update(const RolloutBuffer& buffer, Rng& /*rng*/) {
  FEDRA_EXPECTS(buffer.size() > 0);
  const std::size_t n = buffer.size();
  const Matrix states = buffer.states_matrix();
  const Matrix next_states = buffer.next_states_matrix();
  const Matrix actions_u = buffer.actions_matrix();
  const std::vector<double> rewards = buffer.rewards();

  GaeResult gae =
      compute_gae(rewards, buffer.values(), buffer.next_values(),
                  buffer.episode_ends(), config_.gamma, config_.gae_lambda);
  normalize_advantages(gae.advantages);

  const double inv_n = 1.0 / static_cast<double>(n);

  // ---- Actor: vanilla policy gradient with advantages ----
  const std::vector<double> logp = policy_.forward_log_probs(states, actions_u);
  double policy_loss = 0.0;
  std::vector<double> coeff(n);
  for (std::size_t i = 0; i < n; ++i) {
    policy_loss += -gae.advantages[i] * logp[i] * inv_n;
    coeff[i] = -gae.advantages[i] * inv_n;
  }
  policy_.zero_grad();
  policy_.backward_log_probs(states, actions_u, coeff, config_.entropy_coef);
  actor_opt_.clip_grad_norm(config_.max_grad_norm);
  actor_opt_.step();
  policy_.clamp_log_std();

  // ---- Critic: one TD fit ----
  // The TD targets are read out of next_v before the V(s) forward, which
  // reuses critic_ws_'s slots and would overwrite it.
  const Matrix& next_v = critic_.forward_cached(next_states, critic_ws_);
  std::vector<double> targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = rewards[i] + config_.gamma * next_v(i, 0);
  }
  double value_loss = 0.0;
  critic_.zero_grad();
  const Matrix& v = critic_.forward_cached(states, critic_ws_);
  Matrix grad_v(v.rows(), 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double err = v(i, 0) - targets[i];
    value_loss += err * err * inv_n;
    grad_v(i, 0) = 2.0 * err * inv_n;
  }
  critic_.backward_cached(grad_v, critic_ws_);
  critic_opt_.clip_grad_norm(config_.max_grad_norm);
  critic_opt_.step();

  UpdateStats stats;
  stats.policy_loss = policy_loss;
  stats.value_loss = value_loss;
  stats.entropy = policy_.entropy();
  stats.total_loss =
      policy_loss + value_loss - config_.entropy_coef * stats.entropy;
  stats.approx_kl = 0.0;
  stats.clip_fraction = 0.0;
  return stats;
}

}  // namespace fedra

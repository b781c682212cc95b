#include "rl/ddpg.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fedra {

namespace {

std::vector<std::size_t> sizes_for(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

Mlp make_actor(std::size_t sdim, std::size_t adim, const DdpgConfig& cfg,
               std::uint64_t seed) {
  Rng rng(seed);
  return Mlp(sizes_for(sdim, cfg.actor_hidden, adim), Activation::Tanh, rng,
             Activation::Sigmoid);
}

Mlp make_critic(std::size_t sdim, std::size_t adim, const DdpgConfig& cfg,
                std::uint64_t seed) {
  Rng rng(seed);
  return Mlp(sizes_for(sdim + adim, cfg.critic_hidden, 1), Activation::Tanh,
             rng);
}

}  // namespace

DdpgAgent::DdpgAgent(std::size_t state_dim, std::size_t action_dim,
                     const DdpgConfig& config, std::uint64_t seed)
    : state_dim_(state_dim),
      action_dim_(action_dim),
      config_(config),
      actor_(make_actor(state_dim, action_dim, config, seed)),
      critic_(make_critic(state_dim, action_dim, config, seed ^ 0xbeefULL)),
      target_actor_(make_actor(state_dim, action_dim, config, seed)),
      target_critic_(
          make_critic(state_dim, action_dim, config, seed ^ 0xbeefULL)),
      actor_opt_(actor_, config.actor_lr),
      critic_opt_(critic_, config.critic_lr),
      replay_(config.replay_capacity),
      per_replay_(config.replay_capacity, config.per_alpha,
                  config.per_beta) {
  FEDRA_EXPECTS(state_dim > 0 && action_dim > 0);
  FEDRA_EXPECTS(config.gamma >= 0.0 && config.gamma < 1.0);
  FEDRA_EXPECTS(config.soft_tau > 0.0 && config.soft_tau <= 1.0);
  FEDRA_EXPECTS(config.action_floor >= 0.0 && config.action_floor < 1.0);
  // Same seeds above make targets start identical to the online networks.
}

std::vector<double> DdpgAgent::act(const std::vector<double>& state) {
  FEDRA_EXPECTS(state.size() == state_dim_);
  actor_infer_in_.resize_reuse(1, state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j) {
    actor_infer_in_(0, j) = state[j];
  }
  const Matrix& a = actor_.forward_cached(actor_infer_in_, actor_infer_ws_);
  std::vector<double> action(action_dim_);
  for (std::size_t j = 0; j < action_dim_; ++j) {
    action[j] = std::clamp(a(0, j), config_.action_floor, 1.0);
  }
  return action;
}

std::vector<double> DdpgAgent::act_noisy(const std::vector<double>& state,
                                         Rng& rng) {
  auto action = act(state);
  for (auto& a : action) {
    a = std::clamp(a + rng.gaussian(0.0, config_.noise_std),
                   config_.action_floor, 1.0);
  }
  return action;
}

void DdpgAgent::concat_into(const Matrix& states, const Matrix& actions,
                            Matrix& joined) {
  FEDRA_EXPECTS(states.rows() == actions.rows());
  joined.resize_reuse(states.rows(), states.cols() + actions.cols());
  for (std::size_t b = 0; b < states.rows(); ++b) {
    auto dst = joined.row(b);
    auto s = states.row(b);
    auto a = actions.row(b);
    std::copy(s.begin(), s.end(), dst.begin());
    std::copy(a.begin(), a.end(),
              dst.begin() + static_cast<std::ptrdiff_t>(states.cols()));
  }
}

void DdpgAgent::soft_update(Sequential& target, Sequential& online) const {
  auto tp = target.params();
  auto op = online.params();
  FEDRA_EXPECTS(tp.size() == op.size());
  const double tau = config_.soft_tau;
  for (std::size_t i = 0; i < tp.size(); ++i) {
    Matrix& t = *tp[i];
    const Matrix& o = *op[i];
    for (std::size_t j = 0; j < t.size(); ++j) {
      t[j] = (1.0 - tau) * t[j] + tau * o[j];
    }
  }
}

void DdpgAgent::remember(OffPolicyTransition t) {
  if (config_.prioritized) {
    per_replay_.push(std::move(t));
  } else {
    replay_.push(std::move(t));
  }
}

std::size_t DdpgAgent::replay_size() const {
  return config_.prioritized ? per_replay_.size() : replay_.size();
}

DdpgStats DdpgAgent::update(Rng& rng) {
  DdpgStats stats;
  if (replay_size() < std::max(config_.warmup, config_.batch_size)) {
    return stats;
  }
  if (!config_.prioritized) {
    const auto batch = replay_.sample(config_.batch_size, rng);
    return update_on_batch(batch, {}, nullptr);
  }
  auto pri = per_replay_.sample(config_.batch_size, rng);
  std::vector<double> td_errors;
  stats = update_on_batch(pri.batch, pri.weights, &td_errors);
  per_replay_.update_priorities(pri.indices, td_errors);
  return stats;
}

DdpgStats DdpgAgent::update_on_batch(const OffPolicyBatch& batch,
                                     const std::vector<double>& is_weights,
                                     std::vector<double>* out_td_errors) {
  DdpgStats stats;
  const std::size_t n = batch.states.rows();
  const double inv_n = 1.0 / static_cast<double>(n);
  FEDRA_EXPECTS(is_weights.empty() || is_weights.size() == n);

  // ---- Critic: fit Q(s,a) to r + gamma Q'(s', mu'(s')) ----
  // The joined critic inputs live in members: the critic caches a pointer
  // to its input until the matching backward.
  next_actions_.assign_from(
      target_actor_.forward_cached(batch.next_states, target_actor_ws_));
  for (std::size_t i = 0; i < next_actions_.size(); ++i) {
    next_actions_[i] =
        std::clamp(next_actions_[i], config_.action_floor, 1.0);
  }
  concat_into(batch.next_states, next_actions_, target_critic_in_);
  const Matrix& next_q =
      target_critic_.forward_cached(target_critic_in_, target_critic_ws_);
  critic_.zero_grad();
  concat_into(batch.states, batch.actions, critic_in_);
  const Matrix& q = critic_.forward_cached(critic_in_, critic_ws_);
  Matrix grad_q(n, 1);
  double critic_loss = 0.0;
  if (out_td_errors) out_td_errors->resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    const double target = batch.rewards[b] + config_.gamma * next_q(b, 0);
    const double err = q(b, 0) - target;
    const double w = is_weights.empty() ? 1.0 : is_weights[b];
    critic_loss += w * err * err * inv_n;
    grad_q(b, 0) = 2.0 * w * err * inv_n;
    if (out_td_errors) (*out_td_errors)[b] = err;
  }
  critic_.backward_cached(grad_q, critic_ws_);
  critic_opt_.step();
  stats.critic_loss = critic_loss;

  // ---- Actor: ascend Q(s, mu(s)) ----
  // Forward the actor, then the critic on (s, mu(s)); the gradient of
  // -mean(Q) w.r.t. the action slice of the critic input chains into the
  // actor's backward pass. Critic parameter grads accumulated during this
  // pass are discarded (zeroed before its next update).
  actor_.zero_grad();
  const Matrix& mu = actor_.forward_cached(batch.states, actor_ws_);
  critic_.zero_grad();
  concat_into(batch.states, mu, critic_in_);
  const Matrix& q_mu = critic_.forward_cached(critic_in_, critic_ws_);
  double actor_obj = 0.0;
  for (std::size_t b = 0; b < n; ++b) actor_obj += q_mu(b, 0) * inv_n;
  Matrix grad_out(n, 1, -inv_n);  // d(-mean Q)/dQ
  const Matrix& grad_input =
      critic_.backward_cached_with_input_grad(grad_out, critic_ws_);
  // Slice the action columns of dL/d(input).
  Matrix grad_action(n, action_dim_);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t j = 0; j < action_dim_; ++j) {
      grad_action(b, j) = grad_input(b, state_dim_ + j);
    }
  }
  actor_.backward_cached(grad_action, actor_ws_);
  actor_opt_.step();
  critic_.zero_grad();  // drop the critic grads from the actor pass
  stats.actor_objective = actor_obj;

  // ---- Target networks: Polyak averaging ----
  soft_update(target_actor_, actor_);
  soft_update(target_critic_, critic_);
  return stats;
}

double DdpgAgent::q_value(const std::vector<double>& state,
                          const std::vector<double>& action) {
  FEDRA_EXPECTS(state.size() == state_dim_);
  FEDRA_EXPECTS(action.size() == action_dim_);
  critic_infer_in_.resize_reuse(1, state_dim_ + action_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j) {
    critic_infer_in_(0, j) = state[j];
  }
  for (std::size_t j = 0; j < action_dim_; ++j) {
    critic_infer_in_(0, state_dim_ + j) = action[j];
  }
  return critic_.forward_cached(critic_infer_in_, critic_infer_ws_)(0, 0);
}

}  // namespace fedra

#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "rl/gae.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contracts.hpp"

namespace fedra {

namespace {

namespace tel = fedra::telemetry;

struct PpoMetrics {
  tel::Counter updates = tel::Telemetry::metrics().counter("ppo.updates");
  tel::Counter minibatches =
      tel::Telemetry::metrics().counter("ppo.minibatches");
  /// Tensor heap bytes allocated during update() — near zero once the
  /// workspaces have warmed up (the allocation-free-path acceptance
  /// metric).
  tel::Counter alloc_bytes =
      tel::Telemetry::metrics().counter("tensor.alloc_bytes");
  tel::Histogram actor_step_us =
      tel::Telemetry::metrics().histogram("ppo.actor_minibatch_us");
  tel::Histogram critic_step_us =
      tel::Telemetry::metrics().histogram("ppo.critic_minibatch_us");
  tel::Gauge last_kl = tel::Telemetry::metrics().gauge("ppo.approx_kl");
  tel::Gauge last_clip_fraction =
      tel::Telemetry::metrics().gauge("ppo.clip_fraction");
  tel::Gauge last_total_loss =
      tel::Telemetry::metrics().gauge("ppo.total_loss");
};

PpoMetrics& ppo_metrics() {
  static PpoMetrics m;
  return m;
}

std::vector<std::size_t> critic_sizes(std::size_t state_dim,
                                      const std::vector<std::size_t>& hidden) {
  std::vector<std::size_t> sizes;
  sizes.push_back(state_dim);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(1);
  return sizes;
}

void gather_rows_into(const Matrix& src, const std::vector<std::size_t>& idx,
                      Matrix& out) {
  out.resize_reuse(idx.size(), src.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    auto dst_row = out.row(r);
    auto src_row = src.row(idx[r]);
    std::copy(src_row.begin(), src_row.end(), dst_row.begin());
  }
}

}  // namespace

PpoAgent::PpoAgent(std::size_t state_dim, std::size_t action_dim,
                   const PolicyConfig& policy_config, const PpoConfig& config,
                   std::uint64_t seed)
    : config_(config),
      policy_([&] {
        Rng rng(seed);
        return GaussianPolicy(state_dim, action_dim, policy_config, rng);
      }()),
      policy_old_([&] {
        Rng rng(seed);  // same seed -> identical initial weights
        return GaussianPolicy(state_dim, action_dim, policy_config, rng);
      }()),
      critic_([&] {
        Rng rng(seed ^ 0xda3e39cb94b95bdbULL);
        return Mlp(critic_sizes(state_dim, config.critic_hidden),
                   config.critic_activation, rng);
      }()),
      actor_opt_(policy_.params(), policy_.grads(), config.actor_lr),
      critic_opt_(critic_, config.critic_lr) {
  FEDRA_EXPECTS(config.gamma >= 0.0 && config.gamma < 1.0);
  FEDRA_EXPECTS(config.clip_epsilon > 0.0);
  FEDRA_EXPECTS(config.update_epochs > 0 && config.minibatch_size > 0);
}

PolicySample PpoAgent::act(const std::vector<double>& state, Rng& rng) {
  return policy_old_.act(state, rng);
}

std::vector<double> PpoAgent::mean_action(const std::vector<double>& state) {
  return policy_.mean_action(state);
}

void PpoAgent::mean_action_batch(const Matrix& states, Matrix& actions) {
  policy_.mean_action_batch(states, actions);
}

double PpoAgent::value(const std::vector<double>& state) {
  critic_infer_in_.resize_reuse(1, state.size());
  for (std::size_t j = 0; j < state.size(); ++j) {
    critic_infer_in_(0, j) = state[j];
  }
  return critic_.forward_cached(critic_infer_in_, critic_infer_ws_)(0, 0);
}

UpdateStats PpoAgent::update(const RolloutBuffer& buffer, Rng& rng) {
  FEDRA_EXPECTS(buffer.size() > 0);
  FEDRA_TRACE_SPAN("ppo_update");
  const TensorAllocStats alloc_before = tensor_alloc_stats();
  const std::size_t n = buffer.size();

  buffer.states_matrix_into(states_);
  buffer.next_states_matrix_into(next_states_);
  buffer.actions_matrix_into(actions_u_);
  const Matrix& states = states_;
  const Matrix& next_states = next_states_;
  const Matrix& actions_u = actions_u_;
  const std::vector<double> logp_old = buffer.log_probs();
  const std::vector<double> rewards = buffer.rewards();

  // Advantages from the collection-time value estimates (standard GAE).
  GaeResult gae =
      compute_gae(rewards, buffer.values(), buffer.next_values(),
                  buffer.episode_ends(), config_.gamma, config_.gae_lambda);
  normalize_advantages(gae.advantages);

  UpdateStats stats;
  double policy_loss_acc = 0.0;
  double value_loss_acc = 0.0;
  double clip_count = 0.0;
  std::size_t minibatches = 0;
  std::size_t samples_seen = 0;

  for (std::size_t epoch = 0; epoch < config_.update_epochs; ++epoch) {
    // Algorithm 1 line 20: TD targets r + gamma * V(s'; theta_v) under the
    // CURRENT critic, refreshed once per epoch (semi-gradient). The
    // critic workspace is immediately reused for minibatch passes, so
    // next_v is consumed into td_target_ before the first one.
    const Matrix& next_v = critic_.forward_cached(next_states, critic_ws_);
    td_target_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      td_target_[i] = rewards[i] + config_.gamma * next_v(i, 0);
    }

    auto perm = rng.permutation(n);
    for (std::size_t start = 0; start < n;
         start += config_.minibatch_size) {
      const std::size_t end = std::min(start + config_.minibatch_size, n);
      idx_.assign(perm.begin() + static_cast<std::ptrdiff_t>(start),
                  perm.begin() + static_cast<std::ptrdiff_t>(end));
      const std::vector<std::size_t>& idx = idx_;
      const double inv_b = 1.0 / static_cast<double>(idx.size());

      gather_rows_into(states, idx, mb_states_);
      gather_rows_into(actions_u, idx, mb_actions_);
      const Matrix& mb_states = mb_states_;
      const Matrix& mb_actions = mb_actions_;

      double mb_policy_loss = 0.0;
      double mb_value_loss = 0.0;
      const bool timed = tel::Telemetry::enabled();

      {
        // ---- Actor: clipped surrogate ----
        tel::ScopedTimer actor_timer(timed ? ppo_metrics().actor_step_us
                                           : tel::Histogram{});
        policy_.forward_log_probs(mb_states, mb_actions, logp_new_);
        coeff_.assign(idx.size(), 0.0);
        const std::vector<double>& logp_new = logp_new_;
        std::vector<double>& coeff = coeff_;
        for (std::size_t b = 0; b < idx.size(); ++b) {
          const double adv = gae.advantages[idx[b]];
          const double ratio = std::exp(logp_new[b] - logp_old[idx[b]]);
          const double clipped = std::clamp(ratio, 1.0 - config_.clip_epsilon,
                                            1.0 + config_.clip_epsilon);
          const double surr = std::min(ratio * adv, clipped * adv);
          mb_policy_loss += -surr * inv_b;
          const bool clip_active =
              (adv > 0.0 && ratio > 1.0 + config_.clip_epsilon) ||
              (adv < 0.0 && ratio < 1.0 - config_.clip_epsilon);
          if (clip_active) {
            clip_count += 1.0;
          } else {
            // d(-surr)/d logp = -adv * ratio (per sample, averaged).
            coeff[b] = -adv * ratio * inv_b;
          }
        }
        policy_.zero_grad();
        // Entropy bonus folded into the same backward pass: the loss
        // includes -entropy_coef * H(pi).
        policy_.backward_log_probs(mb_states, mb_actions, coeff,
                                   config_.entropy_coef);
        actor_opt_.clip_grad_norm(config_.max_grad_norm);
        actor_opt_.step();
        policy_.clamp_log_std();
      }

      {
        // ---- Critic: TD residual fit (squared or Huber) ----
        tel::ScopedTimer critic_timer(timed ? ppo_metrics().critic_step_us
                                            : tel::Histogram{});
        const double delta = config_.critic_huber_delta;
        critic_.zero_grad();
        const Matrix& v = critic_.forward_cached(mb_states, critic_ws_);
        grad_v_.resize_reuse(v.rows(), 1);  // every entry assigned below
        for (std::size_t b = 0; b < idx.size(); ++b) {
          const double err = v(b, 0) - td_target_[idx[b]];
          if (delta > 0.0 && std::abs(err) > delta) {
            mb_value_loss += delta * (std::abs(err) - 0.5 * delta) * inv_b;
            grad_v_(b, 0) = (err > 0.0 ? delta : -delta) * inv_b;
          } else {
            mb_value_loss += err * err * inv_b;
            grad_v_(b, 0) = 2.0 * err * inv_b;
          }
        }
        critic_.backward_cached(grad_v_, critic_ws_);
        critic_opt_.clip_grad_norm(config_.max_grad_norm);
        critic_opt_.step();
      }

      policy_loss_acc += mb_policy_loss;
      value_loss_acc += mb_value_loss;
      samples_seen += idx.size();
      ++minibatches;
    }
  }

  stats.policy_loss =
      minibatches > 0 ? policy_loss_acc / static_cast<double>(minibatches)
                      : 0.0;
  stats.value_loss =
      minibatches > 0 ? value_loss_acc / static_cast<double>(minibatches)
                      : 0.0;
  stats.clip_fraction =
      samples_seen > 0 ? clip_count / static_cast<double>(samples_seen) : 0.0;
  stats.entropy = policy_.entropy();
  stats.total_loss = stats.policy_loss + stats.value_loss -
                     config_.entropy_coef * stats.entropy;

  // Post-update KL(old || new) estimate over the full buffer.
  std::vector<double> logp_final = policy_.log_probs(states, actions_u);
  double kl = 0.0;
  for (std::size_t i = 0; i < n; ++i) kl += logp_old[i] - logp_final[i];
  stats.approx_kl = kl / static_cast<double>(n);

  // Algorithm 1 line 22: theta_a^old <- theta_a.
  policy_old_.copy_params_from(policy_);

  FEDRA_TELEMETRY_IF {
    auto& m = ppo_metrics();
    m.updates.add();
    m.minibatches.add(minibatches);
    m.last_kl.set(stats.approx_kl);
    m.last_clip_fraction.set(stats.clip_fraction);
    m.last_total_loss.set(stats.total_loss);
    m.alloc_bytes.add(tensor_alloc_stats().bytes - alloc_before.bytes);
  }
  return stats;
}

void PpoAgent::save(const std::string& prefix) {
  policy_.save(prefix + ".actor");
  critic_.save(prefix + ".critic");
}

void PpoAgent::load(const std::string& prefix) {
  policy_.load(prefix + ".actor");
  critic_.load(prefix + ".critic");
  policy_old_.copy_params_from(policy_);
}

}  // namespace fedra

#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "rl/gae.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

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

void gather_rows_into(const Matrix& src, std::span<const std::size_t> idx,
                      Matrix& out) {
  out.resize_reuse(idx.size(), src.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    auto dst_row = out.row(r);
    auto src_row = src.row(idx[r]);
    std::copy(src_row.begin(), src_row.end(), dst_row.begin());
  }
}

/// Minibatch `start` of a permutation: at most `size` indices.
std::span<const std::size_t> minibatch(const std::vector<std::size_t>& perm,
                                       std::size_t start, std::size_t size) {
  return {perm.data() + start, std::min(size, perm.size() - start)};
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
        return Mlp({state_dim, 64, 64, 1}, Activation::Tanh, rng);
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
  const std::vector<double> logp_old = buffer.log_probs();
  const std::vector<double> rewards = buffer.rewards();

  // Advantages from the collection-time value estimates (standard GAE).
  std::vector<double> advantages =
      compute_gae(rewards, buffer.values(), buffer.next_values(),
                  buffer.episode_ends(), config_.gamma, config_.gae_lambda);
  normalize_advantages(advantages);

  // Both sides walk the same minibatches. `rng` feeds nothing else in an
  // update, so drawing every epoch's permutation up front leaves its
  // stream unchanged.
  Permutations perms(config_.update_epochs);
  for (auto& perm : perms) perm = rng.permutation(n);

  // Lines 19 and 20 share no parameters (the advantages come from the
  // values stored in the buffer), so the actor's epochs run as one pool
  // task while the critic's run here. Each side owns its buffers and keeps
  // its serial loss order, so the bits do not depend on which thread runs
  // the task; when no worker is free, wait() runs it on this thread. The
  // critic side is the longer one (it also refreshes the TD targets each
  // epoch), so this thread rarely blocks in wait(), whose wake-up may move
  // it to another core.
  ActorSums actor;
  TaskGroup actor_side(global_pool());
  actor_side.run(
      [&] { actor = train_actor(perms, advantages, logp_old); });
  const double value_loss_acc = fit_critic(perms, rewards);
  actor_side.wait();

  const std::size_t minibatches =
      config_.update_epochs *
      ((n + config_.minibatch_size - 1) / config_.minibatch_size);
  UpdateStats stats;
  stats.policy_loss = actor.policy_loss / static_cast<double>(minibatches);
  stats.value_loss = value_loss_acc / static_cast<double>(minibatches);
  stats.clip_fraction =
      actor.clipped / static_cast<double>(config_.update_epochs * n);

  // Post-update KL(old || new) over the full buffer, in minibatch-sized
  // blocks through the actor's workspace.
  policy_.log_probs(states_, actions_u_, config_.minibatch_size, logp_new_);
  double kl = 0.0;
  for (std::size_t i = 0; i < n; ++i) kl += logp_old[i] - logp_new_[i];
  stats.approx_kl = kl / static_cast<double>(n);
  stats.entropy = policy_.entropy();
  stats.total_loss = stats.policy_loss + stats.value_loss -
                     config_.entropy_coef * stats.entropy;

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

PpoAgent::ActorSums PpoAgent::train_actor(
    const Permutations& perms, const std::vector<double>& advantages,
    const std::vector<double>& logp_old) {
  const double eps = config_.clip_epsilon;
  ActorSums sums;
  for (const auto& perm : perms) {
    for (std::size_t start = 0; start < perm.size();
         start += config_.minibatch_size) {
      const auto idx = minibatch(perm, start, config_.minibatch_size);
      const double inv_b = 1.0 / static_cast<double>(idx.size());
      gather_rows_into(states_, idx, mb_states_);
      gather_rows_into(actions_u_, idx, mb_actions_);

      // Clipped surrogate.
      tel::ScopedTimer timer(tel::Telemetry::enabled()
                                 ? ppo_metrics().actor_step_us
                                 : tel::Histogram{});
      double mb_policy_loss = 0.0;
      policy_.forward_log_probs(mb_states_, mb_actions_, logp_new_);
      coeff_.assign(idx.size(), 0.0);
      for (std::size_t b = 0; b < idx.size(); ++b) {
        const double adv = advantages[idx[b]];
        const double ratio = std::exp(logp_new_[b] - logp_old[idx[b]]);
        const double clipped = std::clamp(ratio, 1.0 - eps, 1.0 + eps);
        const double surr = std::min(ratio * adv, clipped * adv);
        mb_policy_loss += -surr * inv_b;
        const bool clip_active = (adv > 0.0 && ratio > 1.0 + eps) ||
                                 (adv < 0.0 && ratio < 1.0 - eps);
        if (clip_active) {
          sums.clipped += 1.0;
        } else {
          // d(-surr)/d logp = -adv * ratio (per sample, averaged).
          coeff_[b] = -adv * ratio * inv_b;
        }
      }
      policy_.zero_grad();
      // Entropy bonus folded into the same backward pass: the loss
      // includes -entropy_coef * H(pi).
      policy_.backward_log_probs(mb_states_, mb_actions_, coeff_,
                                 config_.entropy_coef);
      actor_opt_.clip_grad_norm(config_.max_grad_norm);
      actor_opt_.step();
      policy_.clamp_log_std();
      sums.policy_loss += mb_policy_loss;
    }
  }
  return sums;
}

double PpoAgent::fit_critic(const Permutations& perms,
                            const std::vector<double>& rewards) {
  const std::size_t n = next_states_.rows();
  const std::size_t mb = config_.minibatch_size;
  td_target_.resize(n);
  double value_loss_acc = 0.0;
  for (const auto& perm : perms) {
    // TD targets r + gamma * V(s'; theta_v) under the CURRENT critic,
    // refreshed once per epoch (semi-gradient), in minibatch-sized row
    // blocks through the minibatch workspace.
    for (std::size_t lo = 0; lo < n; lo += mb) {
      const std::size_t rows = std::min(mb, n - lo);
      const std::size_t cols = next_states_.cols();
      critic_mb_states_.resize_reuse(rows, cols);
      std::copy(next_states_.data() + lo * cols,
                next_states_.data() + (lo + rows) * cols,
                critic_mb_states_.data());
      const Matrix& next_v =
          critic_.forward_cached(critic_mb_states_, critic_ws_);
      for (std::size_t b = 0; b < rows; ++b) {
        td_target_[lo + b] = rewards[lo + b] + config_.gamma * next_v(b, 0);
      }
    }

    for (std::size_t start = 0; start < n; start += mb) {
      const auto idx = minibatch(perm, start, mb);
      const double inv_b = 1.0 / static_cast<double>(idx.size());
      gather_rows_into(states_, idx, critic_mb_states_);

      // Squared TD residual fit.
      tel::ScopedTimer timer(tel::Telemetry::enabled()
                                 ? ppo_metrics().critic_step_us
                                 : tel::Histogram{});
      double mb_value_loss = 0.0;
      critic_.zero_grad();
      const Matrix& v = critic_.forward_cached(critic_mb_states_, critic_ws_);
      grad_v_.resize_reuse(v.rows(), 1);  // every entry assigned below
      for (std::size_t b = 0; b < idx.size(); ++b) {
        const double err = v(b, 0) - td_target_[idx[b]];
        mb_value_loss += err * err * inv_b;
        grad_v_(b, 0) = 2.0 * err * inv_b;
      }
      critic_.backward_cached(grad_v_, critic_ws_);
      critic_opt_.clip_grad_norm(config_.max_grad_norm);
      critic_opt_.step();
      value_loss_acc += mb_value_loss;
    }
  }
  return value_loss_acc;
}

}  // namespace fedra

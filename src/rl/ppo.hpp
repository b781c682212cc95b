// Proximal Policy Optimization (clipped surrogate) with an actor-critic
// pair, implementing the update stage of Algorithm 1:
//   - the SAMPLING policy theta_a^old fills the buffer (lines 11-16);
//   - M epochs of minibatch PPO update theta_a (line 19);
//   - the critic V(.; theta_v) is fitted by minimizing the one-step TD
//     residual [r + gamma V(s') - V(s)]^2 (line 20, semi-gradient: the
//     bootstrap target is re-evaluated under the current critic each
//     epoch but not differentiated);
//   - theta_a^old <- theta_a and the buffer is cleared (lines 22-23).
#pragma once

#include <cstddef>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/policy.hpp"
#include "rl/rollout.hpp"
#include "util/rng.hpp"

namespace fedra {

struct PpoConfig {
  double gamma = 0.95;
  double gae_lambda = 0.95;
  double clip_epsilon = 0.2;
  std::size_t update_epochs = 10;  ///< M of Algorithm 1
  std::size_t minibatch_size = 64;
  double actor_lr = 3e-4;
  double critic_lr = 1e-3;
  double entropy_coef = 1e-3;
  double max_grad_norm = 0.5;
};

struct UpdateStats {
  double policy_loss = 0.0;   ///< mean clipped-surrogate loss (minimized)
  double value_loss = 0.0;    ///< mean TD residual squared
  double entropy = 0.0;       ///< policy entropy after the update
  double approx_kl = 0.0;     ///< mean(logp_old - logp_new) after update
  double clip_fraction = 0.0; ///< fraction of samples with clipped ratio
  /// Combined scalar reported as the "training loss" of the paper's
  /// Fig. 6(a): policy_loss + value_loss - entropy_coef * entropy.
  double total_loss = 0.0;
};

class PpoAgent {
 public:
  PpoAgent(std::size_t state_dim, std::size_t action_dim,
           const PolicyConfig& policy_config, const PpoConfig& config,
           std::uint64_t seed);

  const PpoConfig& config() const { return config_; }

  /// Samples from theta_a^old (the behavior policy, Algorithm 1 line 12).
  PolicySample act(const std::vector<double>& state, Rng& rng);

  /// Deterministic mean action from theta_a (online reasoning).
  std::vector<double> mean_action(const std::vector<double>& state);

  /// V(s; theta_v) for rollout bookkeeping.
  double value(const std::vector<double>& state);

  /// Runs M PPO epochs + critic fits over the (full) buffer, then syncs
  /// theta_a^old <- theta_a. The caller clears the buffer afterwards.
  /// The actor's epochs run as one task on global_pool() beside the
  /// critic's on the calling thread; the result is bit-identical for every
  /// pool size. Not reentrant: one update per agent at a time.
  UpdateStats update(const RolloutBuffer& buffer, Rng& rng);

  GaussianPolicy& policy() { return policy_; }
  GaussianPolicy& behavior_policy() { return policy_old_; }
  Mlp& critic() { return critic_; }

  // Optimizer state access for checkpointing (fedra::ckpt): a bit-exact
  // resume must carry the Adam moments and step counters across.
  Adam& actor_optimizer() { return actor_opt_; }
  Adam& critic_optimizer() { return critic_opt_; }

 private:
  using Permutations = std::vector<std::vector<std::size_t>>;

  struct ActorSums {
    double policy_loss = 0.0;  ///< sum of the minibatch losses
    double clipped = 0.0;      ///< samples whose ratio was clipped
  };

  /// Algorithm 1 line 19 over every epoch's minibatches. Touches only
  /// actor-side members, so it runs beside fit_critic.
  ActorSums train_actor(const Permutations& perms,
                        const std::vector<double>& advantages,
                        const std::vector<double>& logp_old);

  /// Algorithm 1 line 20: per epoch, refresh the TD targets under the
  /// current critic, then fit every minibatch. Returns the sum of the
  /// minibatch losses. Touches only critic-side members.
  double fit_critic(const Permutations& perms,
                    const std::vector<double>& rewards);

  PpoConfig config_;
  GaussianPolicy policy_;      ///< theta_a
  GaussianPolicy policy_old_;  ///< theta_a^old
  Mlp critic_;                 ///< theta_v: two tanh hidden layers of 64
  Adam actor_opt_;
  Adam critic_opt_;

  // Update-loop scratch, reused across minibatches and updates so the
  // steady-state iteration performs no tensor heap allocation (the
  // tensor.alloc_bytes counter tracks the residual). Read-only during the
  // concurrent phase: states_, next_states_ (critic), actions_u_ (actor).
  // Every other buffer belongs to one side, and no workspace grows past a
  // minibatch.
  Workspace critic_ws_;
  Workspace critic_infer_ws_;  ///< single-row V(s) buffers, kept separate
                               ///< so value() between update passes never
                               ///< touches the minibatch workspace
  Matrix critic_infer_in_;     ///< persistent 1xS input row for value()
  Matrix states_;
  Matrix next_states_;
  Matrix actions_u_;
  // Actor side.
  Matrix mb_states_;
  Matrix mb_actions_;
  std::vector<double> coeff_;
  std::vector<double> logp_new_;
  // Critic side.
  Matrix critic_mb_states_;
  Matrix grad_v_;
  std::vector<double> td_target_;
};

}  // namespace fedra

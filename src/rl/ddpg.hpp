// Deep Deterministic Policy Gradient (Lillicrap et al.; the DPG line of
// work the paper cites via [23]). An off-policy alternative to the PPO
// agent, used by the offpolicy ablation bench: deterministic actor
// mu(s) in (0,1)^A (sigmoid head), Q-critic over (s, a), target copies
// with Polyak soft updates, Gaussian exploration noise, uniform replay.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/prioritized_replay.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace fedra {

struct DdpgConfig {
  std::vector<std::size_t> actor_hidden = {64, 64};
  std::vector<std::size_t> critic_hidden = {64, 64};
  double gamma = 0.4;        ///< same near-greedy discount as the PPO agent
  double soft_tau = 0.01;    ///< Polyak coefficient for target updates
  double actor_lr = 1e-4;
  double critic_lr = 1e-3;
  double noise_std = 0.1;    ///< exploration noise on the action, in (0,1)
  std::size_t batch_size = 64;
  std::size_t replay_capacity = 20000;
  std::size_t warmup = 256;  ///< transitions before updates start
  double action_floor = 0.01;  ///< actions clamped to [floor, 1]
  /// Prioritized replay (Schaul et al.) instead of uniform sampling.
  bool prioritized = false;
  double per_alpha = 0.6;
  double per_beta = 0.4;
};

struct DdpgStats {
  double critic_loss = 0.0;
  double actor_objective = 0.0;  ///< mean Q(s, mu(s)) after the update
};

class DdpgAgent {
 public:
  DdpgAgent(std::size_t state_dim, std::size_t action_dim,
            const DdpgConfig& config, std::uint64_t seed);

  std::size_t state_dim() const { return state_dim_; }
  std::size_t action_dim() const { return action_dim_; }

  /// Deterministic action mu(s) in (action_floor, 1]^A. Runs through a
  /// persistent inference workspace: zero heap traffic at steady state.
  std::vector<double> act(const std::vector<double>& state);

  /// mu(s) + Gaussian noise, clamped (training-time exploration).
  std::vector<double> act_noisy(const std::vector<double>& state, Rng& rng);

  void remember(OffPolicyTransition t);
  std::size_t replay_size() const;

  /// One gradient step on a sampled minibatch (no-op before warmup).
  DdpgStats update(Rng& rng);

  /// Q(s, a) under the online critic.
  double q_value(const std::vector<double>& state,
                 const std::vector<double>& action);

 private:
  /// joined = [states | actions], row by row (capacity reused).
  static void concat_into(const Matrix& states, const Matrix& actions,
                          Matrix& joined);
  void soft_update(Sequential& target, Sequential& online) const;
  /// Core update on a minibatch; `is_weights`/`out_td_errors` support the
  /// prioritized path (empty weights = uniform).
  DdpgStats update_on_batch(const OffPolicyBatch& batch,
                            const std::vector<double>& is_weights,
                            std::vector<double>* out_td_errors);

  std::size_t state_dim_;
  std::size_t action_dim_;
  DdpgConfig config_;
  Mlp actor_;
  Mlp critic_;
  Mlp target_actor_;
  Mlp target_critic_;
  Adam actor_opt_;
  Adam critic_opt_;
  ReplayBuffer replay_;                 ///< used when !config.prioritized
  PrioritizedReplayBuffer per_replay_;  ///< used when config.prioritized

  // Minibatch update buffers, one workspace per network. The critic
  // inputs are members because the critic caches a pointer to them until
  // the matching backward.
  Workspace actor_ws_;
  Workspace critic_ws_;
  Workspace target_actor_ws_;
  Workspace target_critic_ws_;
  Matrix next_actions_;      ///< clamped mu'(s')
  Matrix target_critic_in_;  ///< [s' | mu'(s')]
  Matrix critic_in_;         ///< [s | a], then [s | mu(s)]

  // Single-row inference buffers (act / q_value), separate from the
  // batch update path so interleaved calls never disturb cached state.
  Workspace actor_infer_ws_;
  Matrix actor_infer_in_;    ///< persistent 1xS input row
  Workspace critic_infer_ws_;
  Matrix critic_infer_in_;   ///< persistent 1x(S+A) concat row
};

}  // namespace fedra

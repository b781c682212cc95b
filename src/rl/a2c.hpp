// Advantage actor-critic WITHOUT the PPO clip — the ablation baseline for
// the paper's claim (Section IV-C) that PPO's bounded policy deviation is
// what makes the update stable. A2C makes exactly one pass over the buffer
// per update (reusing on-policy data more than once without a trust region
// is unsound), using the same GAE advantages and TD critic fit as PPO.
#pragma once

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "util/rng.hpp"

namespace fedra {

class A2cAgent {
 public:
  /// Shares PpoConfig for the common knobs; clip_epsilon and update_epochs
  /// are ignored (single unclipped pass).
  A2cAgent(std::size_t state_dim, std::size_t action_dim,
           const PolicyConfig& policy_config, const PpoConfig& config,
           std::uint64_t seed);

  PolicySample act(const std::vector<double>& state, Rng& rng);
  /// Deterministic mean action, via GaussianPolicy's persistent inference
  /// workspace (zero-alloc steady state).
  std::vector<double> mean_action(const std::vector<double>& state);
  double value(const std::vector<double>& state);

  UpdateStats update(const RolloutBuffer& buffer, Rng& rng);

  GaussianPolicy& policy() { return policy_; }

 private:
  PpoConfig config_;
  GaussianPolicy policy_;
  Mlp critic_;
  Adam actor_opt_;
  Adam critic_opt_;
  Workspace critic_ws_;        ///< batch buffers for the critic TD fit
  Workspace critic_infer_ws_;  ///< single-row V(s) inference buffers
  Matrix critic_infer_in_;     ///< persistent 1xS input row for value()
};

}  // namespace fedra

// Factored DQN over discretized frequencies — the value-based ablation.
//
// Section IV-B2 of the paper argues that value-based methods (Q-learning,
// SARSA, DQN) cannot handle the continuous joint action space: a JOINT
// discretization needs L^N outputs (10 levels, 50 devices -> 10^50). The
// tractable workaround is the "independent learners" factorization
// implemented here: one Q-head per device over L frequency levels, all
// heads sharing the network trunk and trained against the SHARED global
// reward. That factorization is exactly where the approach breaks — each
// head's target is polluted by the other devices' exploration (a
// non-stationarity the paper's policy-gradient choice avoids) — and the
// DQN ablation bench measures the resulting gap.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace fedra {

struct DqnConfig {
  std::vector<std::size_t> hidden = {64, 64};
  std::size_t levels = 10;      ///< discrete frequency fractions per device
  double gamma = 0.4;
  double lr = 1e-3;
  std::size_t batch_size = 64;
  std::size_t replay_capacity = 20000;
  std::size_t warmup = 256;
  std::size_t target_sync_every = 200;  ///< hard target update period
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 10000;
};

struct DqnStats {
  double td_loss = 0.0;
  double epsilon = 0.0;
};

class FactoredDqnAgent {
 public:
  FactoredDqnAgent(std::size_t state_dim, std::size_t num_devices,
                   const DqnConfig& config, std::uint64_t seed);

  std::size_t state_dim() const { return state_dim_; }
  std::size_t num_devices() const { return devices_; }
  std::size_t levels() const { return config_.levels; }

  /// Frequency fraction encoded by level l: (l + 1) / L, so level L-1 is
  /// full speed and level 0 is 1/L of the cap (never zero).
  double fraction_of(std::size_t level) const;

  /// Greedy per-device action (fractions in (0, 1]).
  std::vector<double> act(const std::vector<double>& state);

  /// Epsilon-greedy exploration; epsilon anneals with the step counter.
  std::vector<double> act_epsilon_greedy(const std::vector<double>& state,
                                         Rng& rng);

  /// Stores a transition; `action` must hold the fractions produced by
  /// act*/fraction_of (they are mapped back to levels exactly).
  void remember(OffPolicyTransition t);

  /// One minibatch update (no-op before warmup). Target net syncs every
  /// config.target_sync_every updates.
  DqnStats update(Rng& rng);

  /// Q-values of one state as an (devices x levels) matrix.
  Matrix q_values(const std::vector<double>& state);

  std::size_t steps() const { return env_steps_; }

 private:
  std::size_t level_of(double fraction) const;
  double current_epsilon() const;

  std::size_t state_dim_;
  std::size_t devices_;
  DqnConfig config_;
  Mlp online_;
  Mlp target_;
  Adam opt_;
  Workspace ws_;         ///< online-net batch buffers for update()
  Workspace target_ws_;  ///< target-net batch buffers for update()
  Workspace infer_ws_;   ///< single-row buffers for q_values()
  Matrix infer_in_;      ///< persistent 1xS input row for q_values()
  ReplayBuffer replay_;
  std::size_t env_steps_ = 0;
  std::size_t updates_ = 0;
};

}  // namespace fedra

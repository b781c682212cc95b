// Algorithm 1: the offline DRL agent training procedure.
//
//   1  init actor/critic randomly
//   2  load network dataset (the traces inside the simulator)
//   3  init replay buffer D and device info
//   4  theta_old <- theta_a
//   5  for each episode:
//   6    randomly select a start time t^1
//   7-10 build s_1 from bandwidth history
//  11    for each iteration k:
//  12      a_k ~ pi(.|s_k; theta_old)
//  13      run the iteration at the chosen frequencies
//  14      r_k from Eq. (13)
//  15-16   s_{k+1}; store (s_k, a_k, r_k, s_{k+1}) in D
//  17-23   when D is full: M PPO epochs, critic TD fit,
//          theta_old <- theta_a, clear D
//
// The trainer owns the env and the PPO agent and reports per-episode
// statistics — exactly the two series of the paper's Fig. 6 (training
// loss and average system cost per episode).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "env/fl_env.hpp"
#include "rl/ppo.hpp"
#include "util/rng.hpp"

namespace fedra {

struct TrainerConfig {
  std::size_t episodes = 300;
  std::size_t buffer_capacity = 256;  ///< |D| of Algorithm 1
  PolicyConfig policy;
  PpoConfig ppo;
};

/// Hyper-parameters tuned for the FL frequency-control problem (see
/// DESIGN.md): the task is NEAR-GREEDY — an action barely influences
/// future bandwidth states — so a small discount (gamma = 0.4) slashes
/// advantage variance; exploration starts tight (sigma ~ 0.3 in u-space)
/// because the reward landscape is smooth in the action.
TrainerConfig recommended_trainer_config(std::size_t episodes = 2000);

struct EpisodeStats {
  std::size_t episode = 0;
  double avg_cost = 0.0;       ///< mean raw Eq. (9) cost per iteration
  double avg_reward = 0.0;     ///< mean scaled reward
  double avg_time = 0.0;       ///< mean T^k
  double avg_energy = 0.0;     ///< mean total energy per iteration
  /// Training-loss stats of the most recent PPO update (zero until the
  /// first update fires).
  double total_loss = 0.0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
};

/// Periodic-checkpoint wiring for train(). The trainer itself stays
/// agnostic of the on-disk format: fedra::ckpt (or any caller) installs
/// on_checkpoint, and the trainer invokes it every checkpoint_every
/// episodes with the index of the NEXT episode to run — exactly the value
/// to feed back as start_episode when resuming.
struct TrainHooks {
  /// First episode to run (resume point; 0 = fresh run).
  std::size_t start_episode = 0;
  /// Invoke on_checkpoint every N completed episodes (0 = never).
  std::size_t checkpoint_every = 0;
  std::function<void(std::size_t next_episode, const EpisodeStats& stats)>
      on_checkpoint;
};

class OfflineTrainer {
 public:
  OfflineTrainer(FlEnv env, const TrainerConfig& config, std::uint64_t seed);

  /// Runs the full offline procedure; returns one stats row per episode.
  std::vector<EpisodeStats> train() { return train(TrainHooks{}); }

  /// train() with resume/checkpoint hooks: runs episodes
  /// [hooks.start_episode, config.episodes) and fires hooks.on_checkpoint
  /// on the configured cadence (plus once after the final episode).
  std::vector<EpisodeStats> train(const TrainHooks& hooks);

  /// Runs a single episode (exposed for incremental training loops and
  /// tests). Updates fire automatically whenever the buffer fills.
  EpisodeStats run_episode(std::size_t episode_index);

  PpoAgent& agent() { return agent_; }
  FlEnv& env() { return env_; }
  const TrainerConfig& config() const { return config_; }

  // Mutable training state, exposed for checkpointing (fedra::ckpt): the
  // rollout buffer (possibly mid-fill at a checkpoint), the trainer's RNG
  // stream, and the stats of the most recent PPO update.
  RolloutBuffer& rollout_buffer() { return buffer_; }
  const RolloutBuffer& rollout_buffer() const { return buffer_; }
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }
  const FlEnv& env() const { return env_; }
  bool has_update() const { return has_update_; }
  const UpdateStats& last_update() const { return last_update_; }
  void restore_update_stats(const UpdateStats& stats, bool has_update) {
    last_update_ = stats;
    has_update_ = has_update;
  }

 private:
  FlEnv env_;
  TrainerConfig config_;
  PpoAgent agent_;
  RolloutBuffer buffer_;
  Rng rng_;
  UpdateStats last_update_;
  bool has_update_ = false;
};

}  // namespace fedra

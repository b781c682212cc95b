// The DRL environment of Section IV-B wrapped around the FL simulator.
//
//   state  s_k = (B_1^k, ..., B_N^k) where B_i^k is the H+1 most recent
//          slot-averaged bandwidths of device i (slot width h seconds),
//          scaled by a fixed reference so entries are O(1);
//   action a_k = <delta_i^k> expressed as fractions of delta_i^max in
//          (0, 1] (the simulator clamps and converts to Hz);
//   reward r_k = -T^k - lambda * sum_i E_i^k (Eq. 13), optionally scaled
//          by reward_scale to keep value-function magnitudes tame.
//
// Episodes are `episode_length` iterations from a random start time
// (Algorithm 1 line 6 randomizes t^1 so the agent sees many trace phases).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace fedra {

struct FlEnvConfig {
  double slot_seconds = 10.0;   ///< h
  std::size_t history_slots = 8;  ///< H: state holds H+1 slots per device
  std::size_t episode_length = 50;
  /// Multiplies Eq. (13) before it reaches the learner. Does not change
  /// the argmax policy, only conditions the critic regression.
  double reward_scale = 0.05;
};

/// State construction shared by FlEnv and the online DrlController: per
/// device, the H+1 most recent slot-averaged bandwidths at time `now`
/// (slots floor(now/h) .. floor(now/h)-H, most recent first), scaled by
/// `bandwidth_ref` so entries are O(1).
std::vector<double> bandwidth_history_state(const SimulatorBase& sim,
                                            double now,
                                            const FlEnvConfig& config,
                                            double bandwidth_ref);

/// State entries per device: the H+1 slot averages.
std::size_t state_features_per_device(const FlEnvConfig& config);

struct StepResult {
  std::vector<double> state;  ///< s_{k+1}
  double reward = 0.0;        ///< scaled Eq. (13)
  bool done = false;          ///< episode_length reached
  IterationResult info;       ///< full simulator outcome (raw cost etc.)
};

class FlEnv {
 public:
  FlEnv(FlSimulator simulator, FlEnvConfig config);

  std::size_t num_devices() const { return sim_.num_devices(); }
  std::size_t state_dim() const {
    return sim_.num_devices() * state_features_per_device(config_);
  }
  std::size_t action_dim() const { return sim_.num_devices(); }

  const FlSimulator& simulator() const { return sim_; }
  FlSimulator& simulator() { return sim_; }
  const FlEnvConfig& config() const { return config_; }

  // Mid-episode state, exposed for checkpointing (fedra::ckpt).
  std::size_t steps_in_episode() const { return steps_in_episode_; }

  /// Restores the mid-episode step counter captured by a checkpoint. The
  /// simulator clock is restored separately via
  /// SimulatorBase::restore_clock.
  void restore_episode(std::size_t steps_in_episode);

  /// Starts an episode at a random time within the trace period; returns
  /// s_1. Randomizing the phase is Algorithm 1 line 6.
  std::vector<double> reset(Rng& rng);

  /// Starts an episode at an exact time (deterministic evaluation).
  std::vector<double> reset_at(double start_time);

  /// Applies an action of per-device frequency FRACTIONS in (0, 1].
  StepResult step(const std::vector<double>& action);

  /// Current state without stepping (recomputed from the clock).
  std::vector<double> observe() const;

  /// delta_i^max of each device — what action fraction 1.0 maps to.
  std::vector<double> max_freqs() const;

  /// The state scaling constant: the max bandwidth over all device traces
  /// (needed to rebuild states outside the env, e.g. during online
  /// reasoning).
  double bandwidth_ref() const { return bandwidth_ref_; }

 private:
  FlSimulator sim_;
  FlEnvConfig config_;
  std::size_t steps_in_episode_ = 0;
  double bandwidth_ref_ = 1.0;
};

}  // namespace fedra

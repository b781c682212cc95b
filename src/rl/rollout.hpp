// Experience replay buffer D of Algorithm 1. PPO is on-policy, so the
// buffer is filled by theta_old, consumed for M update epochs, then
// cleared (Algorithm 1 lines 16-23) — it is a rollout buffer, not an
// off-policy replay store.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/contracts.hpp"

namespace fedra {

struct Transition {
  std::vector<double> state;
  std::vector<double> next_state;  ///< s' — re-evaluating TD targets
  /// Pre-squash Gaussian sample u (the action is sigmoid(u)); stored in
  /// u-space because PPO ratios need log pi(u|s), and the squash Jacobian
  /// cancels between old and new policies.
  std::vector<double> action_u;
  double log_prob = 0.0;  ///< log pi_old(u|s)
  double reward = 0.0;
  double value = 0.0;       ///< V(s) under the critic at collection time
  double next_value = 0.0;  ///< V(s') — bootstraps TD and truncated GAE
  bool episode_end = false; ///< episode boundary (time-limit truncation)
};

class RolloutBuffer {
 public:
  explicit RolloutBuffer(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return transitions_.size(); }
  bool full() const { return size() >= capacity_; }
  void clear() { transitions_.clear(); }

  void push(Transition t);

  const Transition& operator[](std::size_t i) const {
    FEDRA_EXPECTS(i < transitions_.size());
    return transitions_[i];
  }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Stack all states, next states or pre-squash actions as one
  /// (size x dim) batch in `m`, reusing its capacity: no fresh allocation
  /// once `m` has warmed up.
  void states_matrix_into(Matrix& m) const;
  void next_states_matrix_into(Matrix& m) const;
  void actions_matrix_into(Matrix& m) const;
  std::vector<double> rewards() const;
  std::vector<double> values() const;
  std::vector<double> next_values() const;
  std::vector<double> log_probs() const;
  std::vector<bool> episode_ends() const;

 private:
  std::size_t capacity_;
  std::vector<Transition> transitions_;
};

}  // namespace fedra

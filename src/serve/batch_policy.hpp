// Policy abstraction the serving engine batches over.
//
// The engine coalesces N concurrent decide() states into one N x S matrix
// and asks the policy for N deterministic actions in a single forward
// pass. The contract that makes serving correct:
//
//   * PER-ROW BIT-EXACTNESS: row b of the batched output must be
//     bit-identical to running states.row(b) alone. Every fedra tensor
//     kernel sums in ascending-k order per output row, so a row's bits
//     never depend on which other rows share the batch — which is what
//     lets the batcher coalesce arbitrary concurrent requests without
//     changing any caller-visible result.
//   * SINGLE-CALLER: mean_action_batch is NOT thread-safe (persistent
//     inference workspaces). The engine's batcher thread is the one
//     caller; tests may call it directly when no engine is running.
#pragma once

#include <cstddef>

#include "rl/policy.hpp"
#include "tensor/matrix.hpp"

namespace fedra::serve {

class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;

  virtual std::size_t state_dim() const = 0;
  virtual std::size_t action_dim() const = 0;

  /// Writes the deterministic action for states.row(b) into actions.row(b)
  /// (actions is resized by the callee with capacity reuse).
  virtual void mean_action_batch(const Matrix& states, Matrix& actions) = 0;
};

/// Serves a GaussianPolicy's deterministic mean (non-owning). A trained
/// PPO agent is served as GaussianMeanPolicy(agent.policy()).
class GaussianMeanPolicy final : public BatchPolicy {
 public:
  explicit GaussianMeanPolicy(GaussianPolicy& policy) : policy_(policy) {}

  std::size_t state_dim() const override { return policy_.state_dim(); }
  std::size_t action_dim() const override { return policy_.action_dim(); }
  void mean_action_batch(const Matrix& states, Matrix& actions) override {
    policy_.mean_action_batch(states, actions);
  }

 private:
  GaussianPolicy& policy_;
};

}  // namespace fedra::serve

// Diagonal-Gaussian policy with a sigmoid squash — the actor network of
// the paper's DRL agent (Section IV-B2: continuous delta_i in (0, 1] of
// delta_i^max, so tabular/value methods are out and the policy is a neural
// network pi(a|s; theta_a)).
//
// Architecture: an MLP with tanh hidden layers maps the state to the
// Gaussian mean mu(s) in u-space; log-std is a state-independent trainable
// vector. A sample u ~ N(mu, sigma) is squashed to the action
// a = sigmoid(u) in (0, 1).
// PPO ratios are formed in u-space: the squash Jacobian is identical under
// the old and new policies for a stored u, so it cancels in the ratio and
// never needs to be differentiated.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/mlp.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace fedra {

struct PolicyConfig {
  std::vector<std::size_t> hidden = {64, 64};
  double init_log_std = -0.7;  ///< sigma ~ 0.5 in u-space
};

/// One sampled decision.
struct PolicySample {
  std::vector<double> action;    ///< sigmoid(u), in (0,1)^A
  std::vector<double> action_u;  ///< pre-squash Gaussian sample
  double log_prob = 0.0;         ///< log N(u; mu(s), sigma)
};

class GaussianPolicy {
 public:
  /// Bounds clamp_log_std() keeps every log-std inside.
  static constexpr double kMinLogStd = -5.0;
  static constexpr double kMaxLogStd = 1.0;

  GaussianPolicy(std::size_t state_dim, std::size_t action_dim,
                 const PolicyConfig& config, Rng& rng);

  std::size_t state_dim() const { return state_dim_; }
  std::size_t action_dim() const { return action_dim_; }

  /// Stochastic action for one state (training-time exploration).
  PolicySample act(const std::vector<double>& state, Rng& rng);

  /// Deterministic action sigmoid(mu(s)) (online reasoning uses the mean,
  /// Section V-B2).
  std::vector<double> mean_action(const std::vector<double>& state);

  /// Batched deterministic actions: row b of `actions` is bit-identical to
  /// mean_action(states.row(b)) — every tensor kernel on this path sums in
  /// the same ascending-k order per output row, so batch composition never
  /// changes a row's bits. Routed through a persistent batched inference
  /// workspace (zero heap traffic once capacities warm up). NOT
  /// thread-safe: callers (the serve engine's batcher) must serialize.
  void mean_action_batch(const Matrix& states, Matrix& actions);

  /// log pi(u|s) for a batch into `out`, WITHOUT caching for backward
  /// (evaluation). Runs the network over blocks of at most `block_rows`
  /// rows, so a full-buffer pass never grows the training workspace past a
  /// minibatch. Rows are independent in every layer, so the values are
  /// bit-identical to one unblocked pass. No backward may follow.
  void log_probs(const Matrix& states, const Matrix& actions_u,
                 std::size_t block_rows, std::vector<double>& out);

  /// Forward pass that caches activations; writes per-row log pi(u|s)
  /// into `out`. Must be followed by backward_log_probs on the same batch,
  /// and `states` must stay valid/unmodified until then (the network
  /// caches pointers, not copies).
  void forward_log_probs(const Matrix& states, const Matrix& actions_u,
                         std::vector<double>& out);

  /// Accumulates gradients of
  ///   sum_b coeff[b] * log pi(u_b|s_b)  -  entropy_coeff * H_bar
  /// w.r.t. all policy parameters, where H_bar is the policy entropy. The
  /// caller encodes the surrogate objective in `coeff` (e.g.
  /// -adv * ratio / B for PPO) and the entropy-bonus weight in
  /// `entropy_coeff` (loss convention: a positive coefficient REWARDS
  /// entropy).
  void backward_log_probs(const Matrix& states, const Matrix& actions_u,
                          const std::vector<double>& coeff,
                          double entropy_coeff = 0.0);

  /// Policy entropy (closed form: sigma does not depend on the state).
  double entropy() const;

  std::vector<Matrix*> params();
  std::vector<Matrix*> grads();
  void zero_grad();

  /// Keeps log-std inside [kMinLogStd, kMaxLogStd] after an optimizer step.
  void clamp_log_std();

  void copy_params_from(GaussianPolicy& other);

  const Matrix& log_std() const { return log_std_; }
  Mlp& mean_net() { return mean_net_; }

 private:
  /// Network output (the A means) for one state. Runs through
  /// infer_in_/infer_ws_, so the result is valid until the next single-row
  /// pass.
  const Matrix& forward_mean(const std::vector<double>& state);
  /// Writes log pi(u|s) of rows [row0, row0 + mean.rows()) into `out`.
  void fill_log_probs(const Matrix& mean, const Matrix& actions_u,
                      std::size_t row0, std::vector<double>& out) const;

  std::size_t state_dim_;
  std::size_t action_dim_;
  Mlp mean_net_;
  Matrix log_std_;
  Matrix grad_log_std_;
  Workspace ws_;         ///< activation/gradient buffers for batch passes
  Workspace infer_ws_;   ///< single-row buffers for act/mean_action (kept
                         ///< separate so inference between training passes
                         ///< never invalidates cached_out_)
  Matrix infer_in_;      ///< persistent 1xS input row for forward_mean
  Matrix block_in_;      ///< row block of a blocked log_probs pass
  Workspace batch_infer_ws_;  ///< NxS buffers for mean_action_batch (own
                              ///< workspace so serving never disturbs the
                              ///< single-row or training buffers)
  /// Means of the last forward_log_probs batch — a pointer into ws_,
  /// valid until the next cached pass.
  const Matrix* cached_out_ = nullptr;
  Matrix grad_out_;      ///< reused dLoss/dMean buffer
};

}  // namespace fedra

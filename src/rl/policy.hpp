// Diagonal-Gaussian policy with a sigmoid squash — the actor network of
// the paper's DRL agent (Section IV-B2: continuous delta_i in (0, 1] of
// delta_i^max, so tabular/value methods are out and the policy is a neural
// network pi(a|s; theta_a)).
//
// Architecture: an MLP maps the state to the Gaussian mean mu(s) in
// u-space; log-std is a state-independent trainable vector. A sample
// u ~ N(mu, sigma) is squashed to the action a = sigmoid(u) in (0, 1).
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
  Activation activation = Activation::Tanh;
  double init_log_std = -0.7;  ///< sigma ~ 0.5 in u-space
  double min_log_std = -5.0;
  double max_log_std = 1.0;
  /// false (default): log-std is a free state-independent parameter
  /// vector (the common PPO choice). true: the network emits 2A outputs —
  /// mean and log-std per action — so exploration width can depend on the
  /// observed bandwidth state (wider when the regime is ambiguous).
  bool state_dependent_std = false;
};

/// One sampled decision.
struct PolicySample {
  std::vector<double> action;    ///< sigmoid(u), in (0,1)^A
  std::vector<double> action_u;  ///< pre-squash Gaussian sample
  double log_prob = 0.0;         ///< log N(u; mu(s), sigma)
};

class GaussianPolicy {
 public:
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
  /// minibatch. Rows are independent in every layer, so the values and the
  /// following entropy() (the mean over ALL rows) are bit-identical to one
  /// unblocked pass. No backward may follow.
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
  /// w.r.t. all policy parameters, where H_bar is the policy entropy
  /// (batch mean for state-dependent sigma). The caller encodes the
  /// surrogate objective in `coeff` (e.g. -adv * ratio / B for PPO) and
  /// the entropy-bonus weight in `entropy_coeff` (loss convention: a
  /// positive coefficient REWARDS entropy).
  void backward_log_probs(const Matrix& states, const Matrix& actions_u,
                          const std::vector<double>& coeff,
                          double entropy_coeff = 0.0);

  /// Policy entropy: exact for state-independent sigma; for
  /// state-dependent sigma, the batch-mean entropy of the most recent
  /// forward_log_probs call (0 before any call).
  double entropy() const;

  std::vector<Matrix*> params();
  std::vector<Matrix*> grads();
  void zero_grad();

  /// Keeps log-std inside [min, max] after an optimizer step.
  void clamp_log_std();

  void copy_params_from(GaussianPolicy& other);

  const Matrix& log_std() const { return log_std_; }
  Mlp& mean_net() { return mean_net_; }

 private:
  /// Raw network output for one state: A columns (mean) or 2A (mean +
  /// raw log-std). Runs through infer_in_/infer_ws_, so the result is
  /// valid until the next single-row pass.
  const Matrix& forward_raw(const std::vector<double>& state);
  /// Clamped log-sigma of sample b, action j, given the raw net output.
  double log_sigma_at(const Matrix& raw, std::size_t b, std::size_t j) const;
  /// Whether the clamp is inactive (gradient passes) at (b, j).
  bool log_sigma_in_range(const Matrix& raw, std::size_t b,
                          std::size_t j) const;
  /// Writes log pi(u|s) of rows [row0, row0 + raw.rows()) into `out`,
  /// adding each row's entropy terms to `entropy_acc` in row order.
  void fill_log_probs(const Matrix& raw, const Matrix& actions_u,
                      std::size_t row0, std::vector<double>& out,
                      double& entropy_acc) const;

  std::size_t state_dim_;
  std::size_t action_dim_;
  PolicyConfig config_;
  Mlp mean_net_;
  Matrix log_std_;       ///< state-independent mode only
  Matrix grad_log_std_;
  Workspace ws_;         ///< activation/gradient buffers for batch passes
  Workspace infer_ws_;   ///< single-row buffers for act/mean_action (kept
                         ///< separate so inference between training passes
                         ///< never invalidates cached_out_)
  Matrix infer_in_;      ///< persistent 1xS input row for forward_raw
  Matrix block_in_;      ///< row block of a blocked log_probs pass
  Workspace batch_infer_ws_;  ///< NxS buffers for mean_action_batch (own
                              ///< workspace so serving never disturbs the
                              ///< single-row or training buffers)
  /// Raw output of the last forward_log_probs batch — a pointer into
  /// ws_, valid until the next cached pass.
  const Matrix* cached_out_ = nullptr;
  Matrix grad_out_;      ///< reused dLoss/dRaw buffer
  double last_entropy_ = 0.0;  ///< batch-mean entropy (state-dep mode)
};

}  // namespace fedra

#include "rl/policy.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace fedra {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

double sigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

std::vector<std::size_t> mlp_sizes(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

}  // namespace

GaussianPolicy::GaussianPolicy(std::size_t state_dim, std::size_t action_dim,
                               const PolicyConfig& config, Rng& rng)
    : state_dim_(state_dim),
      action_dim_(action_dim),
      mean_net_(mlp_sizes(state_dim, config.hidden, action_dim),
                Activation::Tanh, rng),
      log_std_(1, action_dim, config.init_log_std),
      grad_log_std_(1, action_dim) {
  FEDRA_EXPECTS(state_dim > 0 && action_dim > 0);
  FEDRA_EXPECTS(kMinLogStd <= config.init_log_std &&
                config.init_log_std <= kMaxLogStd);
}

const Matrix& GaussianPolicy::forward_mean(const std::vector<double>& state) {
  FEDRA_EXPECTS(state.size() == state_dim_);
  infer_in_.resize_reuse(1, state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j) infer_in_(0, j) = state[j];
  return mean_net_.forward_cached(infer_in_, infer_ws_);
}

PolicySample GaussianPolicy::act(const std::vector<double>& state, Rng& rng) {
  const Matrix& mean = forward_mean(state);
  PolicySample sample;
  sample.action.resize(action_dim_);
  sample.action_u.resize(action_dim_);
  double logp = 0.0;
  for (std::size_t j = 0; j < action_dim_; ++j) {
    const double ls = log_std_[j];
    const double sd = std::exp(ls);
    const double u = mean(0, j) + sd * rng.gaussian();
    const double z = (u - mean(0, j)) / sd;
    logp += -0.5 * z * z - ls - 0.5 * kLog2Pi;
    sample.action_u[j] = u;
    sample.action[j] = sigmoid(u);
  }
  sample.log_prob = logp;
  return sample;
}

std::vector<double> GaussianPolicy::mean_action(
    const std::vector<double>& state) {
  const Matrix& mean = forward_mean(state);
  std::vector<double> action(action_dim_);
  for (std::size_t j = 0; j < action_dim_; ++j) {
    action[j] = sigmoid(mean(0, j));
  }
  return action;
}

void GaussianPolicy::mean_action_batch(const Matrix& states, Matrix& actions) {
  FEDRA_EXPECTS(states.cols() == state_dim_);
  const Matrix& mean = mean_net_.forward_cached(states, batch_infer_ws_);
  actions.resize_reuse(states.rows(), action_dim_);
  for (std::size_t b = 0; b < states.rows(); ++b) {
    for (std::size_t j = 0; j < action_dim_; ++j) {
      actions(b, j) = sigmoid(mean(b, j));
    }
  }
}

void GaussianPolicy::log_probs(const Matrix& states, const Matrix& actions_u,
                               std::size_t block_rows,
                               std::vector<double>& out) {
  FEDRA_EXPECTS(block_rows > 0);
  FEDRA_EXPECTS(states.cols() == state_dim_);
  FEDRA_EXPECTS(actions_u.cols() == action_dim_);
  FEDRA_EXPECTS(states.rows() == actions_u.rows());
  const std::size_t n = states.rows();
  out.resize(n);
  for (std::size_t lo = 0; lo < n; lo += block_rows) {
    const std::size_t hi = std::min(lo + block_rows, n);
    block_in_.resize_reuse(hi - lo, state_dim_);
    std::copy(states.data() + lo * state_dim_, states.data() + hi * state_dim_,
              block_in_.data());
    fill_log_probs(mean_net_.forward_cached(block_in_, ws_), actions_u, lo,
                   out);
  }
  cached_out_ = nullptr;  // the last block is not a batch to backward
}

void GaussianPolicy::forward_log_probs(const Matrix& states,
                                       const Matrix& actions_u,
                                       std::vector<double>& out) {
  FEDRA_EXPECTS(states.cols() == state_dim_);
  FEDRA_EXPECTS(actions_u.cols() == action_dim_);
  FEDRA_EXPECTS(states.rows() == actions_u.rows());
  const Matrix& mean = mean_net_.forward_cached(states, ws_);
  cached_out_ = &mean;
  out.resize(states.rows());
  fill_log_probs(mean, actions_u, 0, out);
}

void GaussianPolicy::fill_log_probs(const Matrix& mean,
                                    const Matrix& actions_u, std::size_t row0,
                                    std::vector<double>& out) const {
  for (std::size_t b = 0; b < mean.rows(); ++b) {
    double logp = 0.0;
    for (std::size_t j = 0; j < action_dim_; ++j) {
      const double ls = log_std_[j];
      const double sd = std::exp(ls);
      const double z = (actions_u(row0 + b, j) - mean(b, j)) / sd;
      logp += -0.5 * z * z - ls - 0.5 * kLog2Pi;
    }
    out[row0 + b] = logp;
  }
}

void GaussianPolicy::backward_log_probs(const Matrix& states,
                                        const Matrix& actions_u,
                                        const std::vector<double>& coeff,
                                        double entropy_coeff) {
  FEDRA_EXPECTS(states.rows() == coeff.size());
  FEDRA_EXPECTS(cached_out_ != nullptr);
  const Matrix& mean = *cached_out_;
  FEDRA_EXPECTS(mean.rows() == states.rows());
  const std::size_t batch = states.rows();
  // d logp / d mu_j        = (u_j - mu_j) / sigma_j^2
  // d logp / d log sigma_j = z_j^2 - 1, with z = (u - mu)/sigma.
  // Entropy term (loss -entropy_coeff * H): dH/dlog sigma_j = 1.
  grad_out_.resize_reuse(batch, action_dim_);  // every entry assigned below
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t j = 0; j < action_dim_; ++j) {
      const double sd = std::exp(log_std_[j]);
      const double diff = actions_u(b, j) - mean(b, j);
      const double z = diff / sd;
      grad_out_(b, j) = coeff[b] * diff / (sd * sd);
      grad_log_std_[j] += coeff[b] * (z * z - 1.0);
    }
  }
  if (entropy_coeff != 0.0) {
    for (std::size_t j = 0; j < action_dim_; ++j) {
      grad_log_std_[j] -= entropy_coeff;
    }
  }
  mean_net_.backward_cached(grad_out_, ws_);
}

double GaussianPolicy::entropy() const {
  double h = 0.0;
  for (std::size_t j = 0; j < action_dim_; ++j) {
    h += log_std_[j] + 0.5 * (kLog2Pi + 1.0);
  }
  return h;
}

std::vector<Matrix*> GaussianPolicy::params() {
  auto ps = mean_net_.params();
  ps.push_back(&log_std_);
  return ps;
}

std::vector<Matrix*> GaussianPolicy::grads() {
  auto gs = mean_net_.grads();
  gs.push_back(&grad_log_std_);
  return gs;
}

void GaussianPolicy::zero_grad() {
  mean_net_.zero_grad();
  grad_log_std_.set_zero();
}

void GaussianPolicy::clamp_log_std() {
  for (std::size_t j = 0; j < action_dim_; ++j) {
    log_std_[j] = std::clamp(log_std_[j], kMinLogStd, kMaxLogStd);
  }
}

void GaussianPolicy::copy_params_from(GaussianPolicy& other) {
  auto dst = params();
  auto src = other.params();
  FEDRA_EXPECTS(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    FEDRA_EXPECTS(dst[i]->same_shape(*src[i]));
    *dst[i] = *src[i];
  }
}

}  // namespace fedra

#include "nn/layernorm.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace fedra {

LayerNorm::LayerNorm(std::size_t features, double epsilon)
    : epsilon_(epsilon),
      gain_(1, features, 1.0),
      bias_(1, features, 0.0),
      grad_gain_(1, features),
      grad_bias_(1, features) {
  FEDRA_EXPECTS(features > 0);
  FEDRA_EXPECTS(epsilon > 0.0);
}

void LayerNorm::forward_into(const Matrix& input, Matrix& out) {
  FEDRA_EXPECTS(input.cols() == gain_.cols());
  const std::size_t n = input.cols();
  normalized_.resize_reuse(input.rows(), n);
  inv_std_.resize(input.rows());
  out.resize_reuse(input.rows(), n);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    auto row = input.row(r);
    double mean = 0.0;
    for (double x : row) mean += x;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double x : row) var += (x - mean) * (x - mean);
    var /= static_cast<double>(n);
    const double inv = 1.0 / std::sqrt(var + epsilon_);
    inv_std_[r] = inv;
    for (std::size_t j = 0; j < n; ++j) {
      const double xhat = (row[j] - mean) * inv;
      normalized_(r, j) = xhat;
      out(r, j) = gain_[j] * xhat + bias_[j];
    }
  }
}

void LayerNorm::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  FEDRA_EXPECTS(grad_output.same_shape(normalized_));
  const std::size_t n = grad_output.cols();
  const double inv_n = 1.0 / static_cast<double>(n);
  grad_in.resize_reuse(grad_output.rows(), n);
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    // dL/dxhat_j = g_j * gain_j; then the standard layer-norm backward:
    // dL/dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    double mean_d = 0.0;
    double mean_dx = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = grad_output(r, j) * gain_[j];
      mean_d += d;
      mean_dx += d * normalized_(r, j);
      grad_gain_[j] += grad_output(r, j) * normalized_(r, j);
      grad_bias_[j] += grad_output(r, j);
    }
    mean_d *= inv_n;
    mean_dx *= inv_n;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = grad_output(r, j) * gain_[j];
      grad_in(r, j) =
          inv_std_[r] * (d - mean_d - normalized_(r, j) * mean_dx);
    }
  }
}

}  // namespace fedra

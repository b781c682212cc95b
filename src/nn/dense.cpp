#include "nn/dense.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace fedra {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
             Init init)
    : weight_(in_features, out_features),
      bias_(1, out_features),
      grad_weight_(in_features, out_features),
      grad_bias_(1, out_features) {
  FEDRA_EXPECTS(in_features > 0 && out_features > 0);
  switch (init) {
    case Init::Xavier: {
      const double limit =
          std::sqrt(6.0 / static_cast<double>(in_features + out_features));
      weight_ = Matrix::random_uniform(in_features, out_features, rng, -limit,
                                       limit);
      break;
    }
    case Init::He: {
      const double std = std::sqrt(2.0 / static_cast<double>(in_features));
      weight_ =
          Matrix::random_gaussian(in_features, out_features, rng, 0.0, std);
      break;
    }
    case Init::Zero:
      break;  // already zeroed
  }
}

void Dense::forward_into(const Matrix& input, Matrix& out) {
  FEDRA_EXPECTS(input.cols() == weight_.rows());
  input_ref_ = &input;  // caller keeps `input` alive until backward
  matmul_into(input, weight_, out);
  add_row_broadcast(out, bias_);
}

void Dense::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  backward_params(grad_output);
  input_grad_into(grad_output, grad_in);
}

void Dense::backward_params(const Matrix& grad_output) {
  accumulate_weight_grad(grad_output);
  col_sum_into(grad_output, gb_scratch_);
  grad_bias_ += gb_scratch_;
}

void Dense::forward_gemm_into(const Matrix& input, Matrix& pre) {
  FEDRA_EXPECTS(input.cols() == weight_.rows());
  input_ref_ = &input;  // caller keeps `input` alive until backward
  matmul_into(input, weight_, pre);
}

void Dense::accumulate_weight_grad(const Matrix& grad_pre) {
  FEDRA_EXPECTS(input_ref_ != nullptr);
  const Matrix& x = *input_ref_;
  FEDRA_EXPECTS(grad_pre.rows() == x.rows());
  FEDRA_EXPECTS(grad_pre.cols() == weight_.cols());
  matmul_at_b_into(x, grad_pre, gw_scratch_);
  grad_weight_ += gw_scratch_;
}

void Dense::input_grad_into(const Matrix& grad_pre, Matrix& grad_in) const {
  matmul_a_bt_into(grad_pre, weight_, grad_in);
}

}  // namespace fedra

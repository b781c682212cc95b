#include "nn/activations.hpp"

#include <algorithm>

#include "nn/fused.hpp"
#include "tensor/ops.hpp"

namespace fedra {

void ReLU::forward_into(const Matrix& input, Matrix& out) {
  input_ref_ = &input;
  out.resize_reuse(input.rows(), input.cols());
  // `x > 0 ? x : 0`: NaN and -0.0 map to +0.0.
  relu_map(input.data(), out.data(), input.size());
}

void ReLU::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  FEDRA_EXPECTS(input_ref_ != nullptr);
  const Matrix& x = *input_ref_;
  FEDRA_EXPECTS(grad_output.same_shape(x));
  grad_in.resize_reuse(x.rows(), x.cols());
  relu_backward_map(grad_output.data(), x.data(), grad_in.data(), x.size());
}

void LeakyReLU::forward_into(const Matrix& input, Matrix& out) {
  input_ref_ = &input;
  out.resize_reuse(input.rows(), input.cols());
  leaky_relu_map(input.data(), slope_, out.data(), input.size());
}

void LeakyReLU::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  FEDRA_EXPECTS(input_ref_ != nullptr);
  const Matrix& x = *input_ref_;
  FEDRA_EXPECTS(grad_output.same_shape(x));
  grad_in.resize_reuse(x.rows(), x.cols());
  leaky_relu_backward_map(grad_output.data(), x.data(), slope_,
                          grad_in.data(), x.size());
}

void Tanh::forward_into(const Matrix& input, Matrix& out) {
  out.resize_reuse(input.rows(), input.cols());
  fast_tanh_map(input.data(), out.data(), input.size());
  output_ref_ = &out;  // derivative reads the output, wherever it lives
}

void Tanh::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  FEDRA_EXPECTS(output_ref_ != nullptr);
  const Matrix& y = *output_ref_;
  FEDRA_EXPECTS(grad_output.same_shape(y));
  grad_in.resize_reuse(y.rows(), y.cols());
  tanh_backward_map(grad_output.data(), y.data(), grad_in.data(), y.size());
}

void Sigmoid::forward_into(const Matrix& input, Matrix& out) {
  out.resize_reuse(input.rows(), input.cols());
  fast_sigmoid_map(input.data(), out.data(), input.size());
  output_ref_ = &out;
}

void Sigmoid::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  FEDRA_EXPECTS(output_ref_ != nullptr);
  const Matrix& y = *output_ref_;
  FEDRA_EXPECTS(grad_output.same_shape(y));
  grad_in.resize_reuse(y.rows(), y.cols());
  sigmoid_backward_map(grad_output.data(), y.data(), grad_in.data(),
                       y.size());
}

void softmax_rows_into(const Matrix& logits, Matrix& out) {
  // No upfront copy: the shifted logits are written straight into `out`
  // (aliasing-safe — each element is read once before it is overwritten),
  // then exponentiated in place and normalized.
  if (&out != &logits) out.resize_reuse(logits.rows(), logits.cols());
  const std::size_t cols = logits.cols();
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    auto src = logits.row(i);
    const double mx = *std::max_element(src.begin(), src.end());
    double* o = out.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) o[j] = src[j] - mx;
    fast_exp_map(o, o, cols);
    double z = 0.0;
    for (std::size_t j = 0; j < cols; ++j) z += o[j];
    for (std::size_t j = 0; j < cols; ++j) o[j] /= z;
  }
}

Matrix softmax_rows(const Matrix& logits) {
  Matrix out;
  softmax_rows_into(logits, out);
  return out;
}

void Softmax::forward_into(const Matrix& input, Matrix& out) {
  softmax_rows_into(input, out);
  output_ref_ = &out;
}

void Softmax::backward_into(const Matrix& grad_output, Matrix& grad_in) {
  FEDRA_EXPECTS(output_ref_ != nullptr);
  const Matrix& y = *output_ref_;
  FEDRA_EXPECTS(grad_output.same_shape(y));
  // dL/dx_j = y_j * (dL/dy_j - sum_k dL/dy_k y_k), per row.
  grad_in.resize_reuse(y.rows(), y.cols());
  for (std::size_t i = 0; i < grad_in.rows(); ++i) {
    auto yr = y.row(i);
    auto go = grad_output.row(i);
    double dotp = 0.0;
    for (std::size_t j = 0; j < yr.size(); ++j) dotp += go[j] * yr[j];
    auto gi = grad_in.row(i);
    for (std::size_t j = 0; j < yr.size(); ++j) {
      gi[j] = yr[j] * (go[j] - dotp);
    }
  }
}

}  // namespace fedra

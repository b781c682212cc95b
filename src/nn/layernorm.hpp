// Layer normalization (Ba et al.): per-row standardization with learned
// gain/bias. Stabilizes the deeper actor/critic variants without the
// batch-size coupling of batch norm (rollout minibatches are small and
// correlated, so batch statistics would be noisy).
#pragma once

#include "nn/layer.hpp"

namespace fedra {

class LayerNorm final : public Layer {
 public:
  explicit LayerNorm(std::size_t features, double epsilon = 1e-5);

  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;
  std::vector<Matrix*> params() override { return {&gain_, &bias_}; }
  std::vector<Matrix*> grads() override { return {&grad_gain_, &grad_bias_}; }
  std::string name() const override { return "LayerNorm"; }

  std::size_t features() const { return gain_.cols(); }

 private:
  double epsilon_;
  Matrix gain_;   ///< 1 x features, initialized to 1
  Matrix bias_;   ///< 1 x features, initialized to 0
  Matrix grad_gain_;
  Matrix grad_bias_;
  // Forward caches for the backward pass.
  Matrix normalized_;   ///< x_hat
  std::vector<double> inv_std_;  ///< 1/sqrt(var + eps) per row
};

}  // namespace fedra

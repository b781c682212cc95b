// Fully connected layer: y = x W + b, with W (in x out) and b (1 x out).
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace fedra {

enum class Init {
  Xavier,  ///< uniform(-sqrt(6/(in+out)), +sqrt(6/(in+out))) — tanh
  He,      ///< gaussian(0, sqrt(2/in)) — ReLU
};

class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
        Init init = Init::Xavier);

  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;

  /// backward_into without dLoss/dInput: accumulates dW and db only. A
  /// network's bottom layer runs this when nobody reads the input gradient.
  void backward_params(const Matrix& grad_output);

  std::vector<Matrix*> params() override { return {&weight_, &bias_}; }
  std::vector<Matrix*> grads() override { return {&grad_weight_, &grad_bias_}; }
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return weight_.rows(); }
  std::size_t out_features() const { return weight_.cols(); }

  const Matrix& weight() const { return weight_; }
  const Matrix& bias() const { return bias_; }
  Matrix& weight() { return weight_; }
  Matrix& bias() { return bias_; }

  // --- fusion hooks (nn/fused.hpp; driven by Sequential) -------------------
  // Forward split: GEMM only, bias folded into the activation pass by the
  // caller. `pre` = x W (NO bias); input pointer cached as usual.
  void forward_gemm_into(const Matrix& input, Matrix& pre);
  // Backward split for a caller-computed dLoss/dPre: accumulate_weight_grad
  // adds dW, input_grad_into writes dX (skipped when nobody reads it). The
  // bias gradient goes through bias_grad_scratch() + accumulate_bias_grad()
  // (filled by the fused dAct·colsum pass), keeping the
  // accumulate-into-scratch-then-add order of backward_into.
  void accumulate_weight_grad(const Matrix& grad_pre);
  void input_grad_into(const Matrix& grad_pre, Matrix& grad_in) const;
  Matrix& bias_grad_scratch() { return gb_scratch_; }
  void accumulate_bias_grad() { grad_bias_ += gb_scratch_; }

 private:
  Matrix weight_;
  Matrix bias_;
  Matrix grad_weight_;
  Matrix grad_bias_;
  // Pointer to the (externally stable) forward input; backward reads it.
  const Matrix* input_ref_ = nullptr;
  // Per-minibatch gradients land here, then accumulate into grad_*_ with
  // a separate +=, so an accumulated gradient is always grad + (this
  // batch's gradient), summed in that order.
  Matrix gw_scratch_;
  Matrix gb_scratch_;
};

}  // namespace fedra

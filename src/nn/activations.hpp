// Stateless activation layers. Each caches a pointer to what its
// derivative needs (the input for the ReLU family, the output buffer for
// Tanh/Sigmoid/Softmax) instead of copying it; see nn/layer.hpp.
#pragma once

#include "nn/layer.hpp"

namespace fedra {

class ReLU final : public Layer {
 public:
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;
  std::string name() const override { return "ReLU"; }

 private:
  const Matrix* input_ref_ = nullptr;
};

class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(double slope = 0.01) : slope_(slope) {}
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;
  std::string name() const override { return "LeakyReLU"; }

 private:
  double slope_;
  const Matrix* input_ref_ = nullptr;
};

class Tanh final : public Layer {
 public:
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;
  std::string name() const override { return "Tanh"; }

  /// Fusion hook (nn/fused.hpp): when Sequential computes this layer's
  /// output via the fused dense+bias+activation pass, it binds the fused
  /// result here so a later backward_into reads the right y.
  void bind_output(const Matrix& y) { output_ref_ = &y; }

 private:
  const Matrix* output_ref_ = nullptr;
};

class Sigmoid final : public Layer {
 public:
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;
  std::string name() const override { return "Sigmoid"; }

  /// Fusion hook; see Tanh::bind_output.
  void bind_output(const Matrix& y) { output_ref_ = &y; }

 private:
  const Matrix* output_ref_ = nullptr;
};

/// Row-wise softmax. Usually fused into SoftmaxCrossEntropy for training;
/// exposed as a layer for inference-time probability outputs.
class Softmax final : public Layer {
 public:
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_in) override;
  std::string name() const override { return "Softmax"; }

 private:
  const Matrix* output_ref_ = nullptr;
};

/// Row-wise softmax as a free function (numerically stabilized).
Matrix softmax_rows(const Matrix& logits);

/// Row-wise softmax into a caller-owned buffer (capacity reused; `out`
/// may alias `logits` — normalization is in place per row).
void softmax_rows_into(const Matrix& logits, Matrix& out);

}  // namespace fedra

// Stateless activation layers. Each caches a pointer to what its
// derivative needs (the input for ReLU, the output buffer for Tanh)
// instead of copying it; see nn/layer.hpp.
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

/// Row-wise softmax into a caller-owned buffer (numerically stabilized,
/// capacity reused; `out` may alias `logits` — normalization is in place
/// per row).
void softmax_rows_into(const Matrix& logits, Matrix& out);

}  // namespace fedra

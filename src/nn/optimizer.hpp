// First-order optimizers over a network's (params, grads) pairs.
// An optimizer binds to a specific network at construction (the param
// pointers are captured) and keeps per-parameter state (momentum / Adam
// moments) aligned with them.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace fedra {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update step using the currently accumulated gradients.
  virtual void step() = 0;

  /// Zeroes the bound network's gradients.
  void zero_grad();

  /// Global gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

 protected:
  explicit Optimizer(Module& network);
  /// Binds explicit (param, grad) lists — for composite models that are
  /// not a single Module (e.g. a Gaussian policy's network + free log-std).
  Optimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads);

  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
};

/// SGD with optional momentum and decoupled weight decay.
class Sgd final : public Optimizer {
 public:
  Sgd(Module& network, double lr, double momentum = 0.0,
      double weight_decay = 0.0);
  Sgd(std::vector<Matrix*> params, std::vector<Matrix*> grads, double lr,
      double momentum = 0.0, double weight_decay = 0.0);

  void step() override;

 private:
  double lr_;
  double momentum_;
  double weight_decay_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(Module& network, double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8);
  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads, double lr,
       double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  void step() override;

  // Optimizer state, exposed for checkpointing (fedra::ckpt). Bias
  // correction depends on the step counter, so a bit-exact resume must
  // restore t alongside the moment estimates.
  std::size_t timestep() const { return t_; }
  const std::vector<Matrix>& moment1() const { return m_; }
  const std::vector<Matrix>& moment2() const { return v_; }

  /// Restores a snapshot; moment shapes must match the bound parameters.
  void restore_state(std::size_t t, std::vector<Matrix> m,
                     std::vector<Matrix> v);

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace fedra

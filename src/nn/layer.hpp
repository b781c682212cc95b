// Layer abstraction for the fedra neural-network library.
//
// Layers operate on batches: a (batch x features) Matrix flows forward, the
// loss gradient flows backward, each pass writing into a caller-owned
// buffer. A layer may cache a POINTER to what its backward needs (its
// forward input, or the output buffer it wrote) instead of copying it, so
// those buffers must stay valid and unmodified until the matching
// backward_into completes; Sequential's cached passes over a Workspace
// guarantee this by construction (nn/workspace.hpp). Parameter gradients
// ACCUMULATE across backward calls so federated local training can average
// minibatches; call zero_grad() between optimizer steps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace fedra {

/// Anything with trainable parameters: a single Layer or a Sequential
/// stack. Optimizers and the gradient checker only need this view.
class Module {
 public:
  Module() = default;
  Module(const Module&) = default;
  Module& operator=(const Module&) = default;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;
  virtual ~Module() = default;

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// valid for the module's lifetime.
  virtual std::vector<Matrix*> params() { return {}; }

  /// Gradients, aligned 1:1 with params().
  virtual std::vector<Matrix*> grads() { return {}; }

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Matrix* g : grads()) g->set_zero();
  }
};

class Layer : public Module {
 public:
  /// Forward pass on a batch (rows = samples) into `out` (capacity reused,
  /// never aliasing `input`). `input` must stay valid and unmodified until
  /// the matching backward_into completes, and so must `out` for layers
  /// whose derivative reads their output.
  virtual void forward_into(const Matrix& input, Matrix& out) = 0;

  /// Backward pass: given dLoss/dOutput, accumulates parameter gradients
  /// and writes dLoss/dInput into `grad_in` (must not alias grad_output).
  virtual void backward_into(const Matrix& grad_output, Matrix& grad_in) = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace fedra

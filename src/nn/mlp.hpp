// Sequential container and a convenience MLP builder.
//
// Mlp is the workhorse model type of fedra: the actor and critic networks
// of the DRL agent and the on-device federated models are all Mlps.
#pragma once

#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace fedra {

// The values are pinned, not positional: they keep the numbers they had
// before LeakyReLU (1) and Sigmoid (3) were deleted, so anything that
// prints or records the raw value (parameterised test names, logs) still
// names the same activation.
enum class Activation { ReLU = 0, Tanh = 2, None = 4 };

/// A stack of layers applied in order. It runs only over a caller-owned
/// Workspace (nn/workspace.hpp), so it is a Module, not a Layer.
class Sequential : public Module {
 public:
  Sequential() = default;

  void add(LayerPtr layer);

  std::vector<Matrix*> params() override;
  std::vector<Matrix*> grads() override;
  std::string name() const override { return "Sequential"; }

  /// Forward through workspace buffers: layer i writes ws.slot(i), so a
  /// steady-state pass performs zero heap allocations. Returns the output
  /// buffer (valid until the next cached call on `ws`). `input` must stay
  /// valid and unmodified until backward_cached completes — layers cache
  /// pointers into these buffers instead of copying. A Dense followed by
  /// Tanh runs as one fused pass (nn/fused.hpp), bit-identical to
  /// calling each layer's forward_into in turn.
  const Matrix& forward_cached(const Matrix& input, Workspace& ws);

  /// Backward counterpart of forward_cached, alternating between the two
  /// ws.grad ping-pong buffers. `grad_output` must not alias them.
  /// Accumulates every parameter gradient but not dLoss/dInput: a bottom
  /// Dense skips its input GEMM, which no training loop reads.
  void backward_cached(const Matrix& grad_output, Workspace& ws);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i);

  /// Snapshot of parameter values (deep copy, aligned with params()).
  std::vector<Matrix> param_values();

  /// Restores a snapshot produced by param_values().
  void set_param_values(const std::vector<Matrix>& values);

 private:
  std::vector<LayerPtr> layers_;
};

/// Fully-connected network: sizes = {in, h1, ..., out}. `hidden` activation
/// is inserted after every layer except the last, whose output is linear.
/// Hidden layers use He init for ReLU, Xavier otherwise.
class Mlp : public Sequential {
 public:
  Mlp(const std::vector<std::size_t>& sizes, Activation hidden, Rng& rng);

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

 private:
  std::size_t in_features_ = 0;
  std::size_t out_features_ = 0;
};

}  // namespace fedra

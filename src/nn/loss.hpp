// Loss functions. Each returns the mean loss over the batch and exposes the
// gradient with respect to the network output (already divided by batch
// size, so a backward pass through the network yields mean gradients).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace fedra {

struct LossResult {
  double value = 0.0;  ///< mean loss over the batch
  Matrix grad;         ///< dLoss/dPrediction, shape of the prediction
};

/// Mean squared error: mean over batch and output dims of (pred-target)^2.
LossResult mse_loss(const Matrix& pred, const Matrix& target);

/// Fused softmax + cross-entropy against integer class labels.
/// `logits` is (batch x classes); labels[i] in [0, classes).
LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<std::size_t>& labels);

/// As softmax_cross_entropy, but reuses `r.grad`'s storage (the
/// allocation-free training-loop variant; bit-identical results).
void softmax_cross_entropy_into(const Matrix& logits,
                                const std::vector<std::size_t>& labels,
                                LossResult& r);

/// Classification accuracy of logits against labels.
double accuracy(const Matrix& logits, const std::vector<std::size_t>& labels);

}  // namespace fedra

#include "nn/loss.hpp"

#include <cmath>

#include "nn/activations.hpp"
#include "tensor/ops.hpp"
#include "util/contracts.hpp"

namespace fedra {

LossResult mse_loss(const Matrix& pred, const Matrix& target) {
  FEDRA_EXPECTS(pred.same_shape(target));
  FEDRA_EXPECTS(pred.rows() > 0);
  LossResult r;
  r.grad = Matrix(pred.rows(), pred.cols());
  const double scale = 1.0 / static_cast<double>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    acc += d * d;
    r.grad[i] = 2.0 * d * scale;
  }
  r.value = acc * scale;
  return r;
}

LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<std::size_t>& labels) {
  LossResult r;
  softmax_cross_entropy_into(logits, labels, r);
  return r;
}

void softmax_cross_entropy_into(const Matrix& logits,
                                const std::vector<std::size_t>& labels,
                                LossResult& r) {
  FEDRA_EXPECTS(logits.rows() == labels.size());
  FEDRA_EXPECTS(logits.rows() > 0);
  Matrix& probs = r.grad;  // softmax lands where the gradient ends up
  softmax_rows_into(logits, probs);
  const double inv_batch = 1.0 / static_cast<double>(logits.rows());
  double acc = 0.0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    FEDRA_EXPECTS(labels[i] < logits.cols());
    const double p = probs(i, labels[i]);
    acc += -std::log(std::max(p, 1e-12));
    probs(i, labels[i]) -= 1.0;  // dCE/dlogit = softmax - onehot
  }
  probs *= inv_batch;
  r.value = acc * inv_batch;
}

double accuracy(const Matrix& logits, const std::vector<std::size_t>& labels) {
  FEDRA_EXPECTS(logits.rows() == labels.size());
  if (labels.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    if (argmax_row(logits, i) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace fedra

#include "nn/layernorm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

// One layer's forward pass into a fresh buffer.
Matrix forward(Layer& layer, const Matrix& x) {
  Matrix y;
  layer.forward_into(x, y);
  return y;
}

TEST(LayerNorm, OutputHasZeroMeanUnitVarPerRow) {
  LayerNorm ln(6);
  Rng rng(1);
  Matrix x = Matrix::random_gaussian(4, 6, rng, 5.0, 3.0);
  auto y = forward(ln, x);
  for (std::size_t r = 0; r < 4; ++r) {
    double mean = 0.0;
    for (std::size_t j = 0; j < 6; ++j) mean += y(r, j);
    mean /= 6.0;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    double var = 0.0;
    for (std::size_t j = 0; j < 6; ++j) {
      var += (y(r, j) - mean) * (y(r, j) - mean);
    }
    var /= 6.0;
    EXPECT_NEAR(var, 1.0, 1e-4);  // epsilon slightly shrinks it
  }
}

TEST(LayerNorm, GainBiasApplied) {
  LayerNorm ln(2);
  ln.params()[0]->fill(2.0);  // gain
  ln.params()[1]->fill(0.5);  // bias
  Matrix x{{-1.0, 1.0}};
  auto y = forward(ln, x);
  // x_hat = {-1, 1} (up to epsilon); y = 2 * x_hat + 0.5.
  EXPECT_NEAR(y(0, 0), -1.5, 1e-4);
  EXPECT_NEAR(y(0, 1), 2.5, 1e-4);
}

TEST(LayerNorm, ShiftAndScaleInvariance) {
  LayerNorm ln(5);
  Rng rng(2);
  Matrix x = Matrix::random_gaussian(3, 5, rng);
  auto y1 = forward(ln, x);
  Matrix shifted = x;
  for (auto& v : shifted.flat()) v = v * 7.0 + 100.0;
  auto y2 = forward(ln, shifted);
  // Invariance is exact only for epsilon = 0; the 1e-5 stabilizer leaves
  // a small scale-dependent residue.
  EXPECT_LT(max_abs_diff(y1, y2), 1e-3);
}

TEST(LayerNorm, ParamGradCheck) {
  Rng rng(3);
  Sequential net;
  net.add(std::make_unique<Dense>(4, 6, rng));
  net.add(std::make_unique<LayerNorm>(6));
  net.add(std::make_unique<Dense>(6, 2, rng));
  Matrix x = Matrix::random_gaussian(5, 4, rng);
  Matrix target = Matrix::random_gaussian(5, 2, rng);
  Workspace ws;
  auto loss_fn = [&] {
    return mse_loss(net.forward_cached(x, ws), target).value;
  };
  net.zero_grad();
  auto r = mse_loss(net.forward_cached(x, ws), target);
  net.backward_cached(r.grad, ws);
  EXPECT_LT(max_param_grad_error(net, loss_fn, 1e-6), 3e-5);
}

TEST(LayerNorm, InputGradCheck) {
  Rng rng(4);
  LayerNorm ln(5);
  // Randomize gain/bias so the test isn't at the identity point.
  *ln.params()[0] = Matrix::random_gaussian(1, 5, rng, 1.0, 0.2);
  *ln.params()[1] = Matrix::random_gaussian(1, 5, rng, 0.0, 0.2);
  Matrix x = Matrix::random_gaussian(3, 5, rng);
  Matrix target = Matrix::random_gaussian(3, 5, rng);
  auto loss_fn = [&](const Matrix& input) {
    LayerNorm copy = ln;
    return mse_loss(forward(copy, input), target).value;
  };
  ln.zero_grad();
  auto r = mse_loss(forward(ln, x), target);
  Matrix gin;
  ln.backward_into(r.grad, gin);
  EXPECT_LT(max_input_grad_error(x, gin, loss_fn, 1e-6), 3e-5);
}

TEST(LayerNorm, TrainableInANetwork) {
  // XOR with a LayerNorm between layers still learns.
  Rng rng(5);
  Sequential net;
  net.add(std::make_unique<Dense>(2, 16, rng));
  net.add(std::make_unique<LayerNorm>(16));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Dense>(16, 2, rng));
  Adam opt(net, 0.02);
  Matrix x{{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}};
  std::vector<std::size_t> labels{0, 1, 1, 0};
  Workspace ws;
  for (int epoch = 0; epoch < 600; ++epoch) {
    opt.zero_grad();
    auto r = softmax_cross_entropy(net.forward_cached(x, ws), labels);
    net.backward_cached(r.grad, ws);
    opt.step();
  }
  EXPECT_DOUBLE_EQ(accuracy(net.forward_cached(x, ws), labels), 1.0);
}

TEST(LayerNormDeathTest, BadArgsAbort) {
  EXPECT_DEATH(LayerNorm(0), "precondition");
  EXPECT_DEATH(LayerNorm(3, 0.0), "precondition");
  LayerNorm ln(3);
  Matrix wrong(2, 4);
  EXPECT_DEATH(forward(ln, wrong), "precondition");
}

}  // namespace
}  // namespace fedra

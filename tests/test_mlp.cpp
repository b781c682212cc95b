#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "tensor/serialize.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

// Inference: one forward pass through a throwaway workspace, returning a
// copy of the output.
Matrix infer(Sequential& net, const Matrix& x) {
  Workspace ws;
  return net.forward_cached(x, ws);
}

TEST(Mlp, TopologyAndParamCount) {
  Rng rng(1);
  Mlp net({4, 8, 3}, Activation::ReLU, rng);
  EXPECT_EQ(net.in_features(), 4u);
  EXPECT_EQ(net.out_features(), 3u);
  // (4*8 + 8) + (8*3 + 3) = 40 + 27
  EXPECT_EQ(net.num_params(), 67u);
}

TEST(Mlp, ForwardShape) {
  Rng rng(2);
  Mlp net({5, 7, 2}, Activation::Tanh, rng);
  Matrix x = Matrix::random_gaussian(11, 5, rng);
  auto y = infer(net, x);
  EXPECT_EQ(y.rows(), 11u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, DeterministicBySeed) {
  Rng a(7), b(7);
  Mlp na({3, 4, 1}, Activation::Tanh, a);
  Mlp nb({3, 4, 1}, Activation::Tanh, b);
  Rng xr(9);
  Matrix x = Matrix::random_gaussian(2, 3, xr);
  EXPECT_EQ(infer(na, x), infer(nb, x));
}

TEST(Mlp, CopyParamsMakesNetsIdentical) {
  Rng a(1), b(2);
  Mlp na({3, 5, 2}, Activation::ReLU, a);
  Mlp nb({3, 5, 2}, Activation::ReLU, b);
  Rng xr(3);
  Matrix x = Matrix::random_gaussian(4, 3, xr);
  EXPECT_NE(infer(na, x), infer(nb, x));
  nb.copy_params_from(na);
  EXPECT_EQ(infer(na, x), infer(nb, x));
}

TEST(Mlp, ParamValuesRoundTrip) {
  Rng rng(4);
  Mlp net({2, 3, 1}, Activation::Tanh, rng);
  auto snapshot = net.param_values();
  Rng xr(5);
  Matrix x = Matrix::random_gaussian(3, 2, xr);
  auto before = infer(net, x);
  // Perturb, then restore.
  for (Matrix* p : net.params()) (*p) *= 0.5;
  EXPECT_NE(infer(net, x), before);
  net.set_param_values(snapshot);
  EXPECT_EQ(infer(net, x), before);
}

TEST(Mlp, SaveLoadRoundTrip) {
  // The parameters in the checkpoint's matrix framing carry the whole net.
  Rng a(6), b(60);
  Mlp na({3, 6, 2}, Activation::Tanh, a);
  Mlp nb({3, 6, 2}, Activation::Tanh, b);
  ByteWriter w;
  for (const Matrix& p : na.param_values()) w.put_matrix(p);
  ByteReader r(w.bytes());
  for (Matrix* p : nb.params()) *p = r.get_matrix();
  EXPECT_TRUE(r.at_end());
  Rng xr(8);
  Matrix x = Matrix::random_gaussian(5, 3, xr);
  EXPECT_EQ(infer(na, x), infer(nb, x));
}

TEST(Mlp, LearnsXor) {
  Rng rng(42);
  Mlp net({2, 16, 2}, Activation::Tanh, rng);
  Adam opt(net, 0.02);
  Matrix x{{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}};
  std::vector<std::size_t> labels{0, 1, 1, 0};
  double final_loss = 1e9;
  Workspace ws;
  for (int epoch = 0; epoch < 500; ++epoch) {
    opt.zero_grad();
    auto r = softmax_cross_entropy(net.forward_cached(x, ws), labels);
    net.backward_cached(r.grad, ws);
    opt.step();
    final_loss = r.value;
  }
  EXPECT_LT(final_loss, 0.05);
  EXPECT_DOUBLE_EQ(accuracy(infer(net, x), labels), 1.0);
}

TEST(Mlp, LearnsLinearRegression) {
  Rng rng(11);
  Mlp net({3, 1}, Activation::None, rng);  // plain linear model
  // Ground truth: y = 2 x0 - x1 + 0.5 x2 + 1.
  Matrix x = Matrix::random_gaussian(64, 3, rng);
  Matrix y(64, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    y(i, 0) = 2.0 * x(i, 0) - x(i, 1) + 0.5 * x(i, 2) + 1.0;
  }
  Sgd opt(net, 0.1);
  Workspace ws;
  for (int epoch = 0; epoch < 400; ++epoch) {
    opt.zero_grad();
    auto r = mse_loss(net.forward_cached(x, ws), y);
    net.backward_cached(r.grad, ws);
    opt.step();
  }
  EXPECT_LT(mse_loss(infer(net, x), y).value, 1e-4);
}

TEST(MlpDeathTest, BadTopologyAborts) {
  Rng rng(12);
  EXPECT_DEATH(Mlp({5}, Activation::ReLU, rng), "precondition");
}

}  // namespace
}  // namespace fedra

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

// Builds a tiny net with the given hidden activation and gradient-checks
// all parameters against central differences through an MSE loss.
double param_grad_error_through(Activation act, std::uint64_t seed) {
  Rng rng(seed);
  Mlp net({3, 5, 2}, act, rng);
  Matrix x = Matrix::random_gaussian(4, 3, rng, 0.0, 0.8);
  Matrix target = Matrix::random_gaussian(4, 2, rng, 0.0, 0.8);
  Workspace ws;
  auto loss_fn = [&] {
    return mse_loss(net.forward_cached(x, ws), target).value;
  };
  net.zero_grad();
  auto r = mse_loss(net.forward_cached(x, ws), target);
  net.backward_cached(r.grad, ws);
  return max_param_grad_error(net, loss_fn, 1e-6);
}

TEST(Dense, ForwardShapeAndValue) {
  Rng rng(1);
  Dense d(2, 3, rng);
  d.weight() = Matrix{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  d.bias() = Matrix{{0.5, 0.5, 0.5}};
  Matrix x{{1.0, 1.0}};
  Matrix y;
  d.forward_into(x, y);
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 3u);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 7.5);
  EXPECT_DOUBLE_EQ(y(0, 2), 9.5);
}

TEST(Dense, GradAccumulatesAcrossBackwardCalls) {
  Rng rng(2);
  Dense d(2, 2, rng);
  Matrix x{{1.0, 2.0}};
  Matrix g{{1.0, 1.0}};
  Matrix y;
  Matrix gx;
  d.forward_into(x, y);
  d.backward_into(g, gx);
  auto once = *d.grads()[0];
  d.forward_into(x, y);
  d.backward_into(g, gx);
  auto twice = *d.grads()[0];
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice[i], 2.0 * once[i], 1e-12);
  }
  d.zero_grad();
  for (double v : d.grads()[0]->flat()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Dense, XavierInitWithinLimit) {
  Rng rng(3);
  Dense d(10, 20, rng, Init::Xavier);
  const double limit = std::sqrt(6.0 / 30.0);
  for (double w : d.weight().flat()) {
    EXPECT_GE(w, -limit);
    EXPECT_LE(w, limit);
  }
  for (double b : d.bias().flat()) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Dense, GradCheck) {
  EXPECT_LT(param_grad_error_through(Activation::None, 10), 1e-5);
}

TEST(Activations, ReluForwardBackward) {
  ReLU relu;
  Matrix x{{-1.0, 0.0, 2.0}};
  Matrix y;
  relu.forward_into(x, y);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 2.0);
  Matrix g{{1.0, 1.0, 1.0}};
  Matrix gx;
  relu.backward_into(g, gx);
  EXPECT_DOUBLE_EQ(gx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gx(0, 1), 0.0);  // derivative at 0 defined as 0
  EXPECT_DOUBLE_EQ(gx(0, 2), 1.0);
}

TEST(Activations, TanhMatchesStd) {
  Tanh t;
  Matrix x{{-0.5, 0.0, 1.25}};
  Matrix y;
  t.forward_into(x, y);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(y(0, j), std::tanh(x(0, j)), 1e-15);
  }
}

TEST(Activations, SoftmaxRowsSumToOne) {
  Matrix logits{{1.0, 2.0, 3.0}, {-5.0, 0.0, 5.0}};
  Matrix p;
  softmax_rows_into(logits, p);
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GT(p(i, j), 0.0);
      s += p(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Activations, SoftmaxShiftInvariant) {
  Matrix a{{1.0, 2.0, 3.0}};
  Matrix b{{1001.0, 1002.0, 1003.0}};
  Matrix pa;
  Matrix pb;
  softmax_rows_into(a, pa);
  softmax_rows_into(b, pb);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(pa(0, j), pb(0, j), 1e-12);
}

class ActivationGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradCheck, ParamsMatchNumericGradient) {
  EXPECT_LT(param_grad_error_through(GetParam(), 77), 2e-5);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradCheck,
                         ::testing::Values(Activation::ReLU,
                                           Activation::Tanh));

TEST(InputGrad, DenseInputGradientMatchesNumeric) {
  Rng rng(6);
  Dense d(4, 3, rng);
  Matrix x = Matrix::random_gaussian(2, 4, rng);
  Matrix target = Matrix::random_gaussian(2, 3, rng);
  auto loss_fn = [&](const Matrix& input) {
    Dense copy = d;  // avoid cache mutation effects
    Matrix y;
    copy.forward_into(input, y);
    return mse_loss(y, target).value;
  };
  d.zero_grad();
  Matrix y;
  d.forward_into(x, y);
  auto r = mse_loss(y, target);
  Matrix gin;
  d.backward_into(r.grad, gin);
  EXPECT_LT(max_input_grad_error(x, gin, loss_fn, 1e-6), 1e-5);
}

}  // namespace
}  // namespace fedra

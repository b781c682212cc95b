#include "nn/regularization.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

// One layer's forward pass into a fresh buffer.
Matrix forward(Layer& layer, const Matrix& x) {
  Matrix y;
  layer.forward_into(x, y);
  return y;
}

// One layer's backward pass into a fresh buffer.
Matrix backward(Layer& layer, const Matrix& g) {
  Matrix gx;
  layer.backward_into(g, gx);
  return gx;
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout d(0.5, 1);
  d.set_training(false);
  Rng rng(2);
  Matrix x = Matrix::random_gaussian(4, 6, rng);
  EXPECT_EQ(forward(d, x), x);
  Matrix g = Matrix::random_gaussian(4, 6, rng);
  EXPECT_EQ(backward(d, g), g);
}

TEST(Dropout, ZeroProbabilityIsIdentity) {
  Dropout d(0.0, 1);
  Rng rng(3);
  Matrix x = Matrix::random_gaussian(2, 3, rng);
  EXPECT_EQ(forward(d, x), x);
}

TEST(Dropout, DropsApproximatelyPFraction) {
  Dropout d(0.3, 4);
  Matrix x(1, 20000, 1.0);
  auto y = forward(d, x);
  std::size_t zeros = 0;
  for (double v : y.flat()) {
    if (v == 0.0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 20000.0, 0.3, 0.02);
}

TEST(Dropout, SurvivorsScaledByInverseKeep) {
  Dropout d(0.5, 5);
  Matrix x(1, 1000, 3.0);
  auto y = forward(d, x);
  for (double v : y.flat()) {
    EXPECT_TRUE(v == 0.0 || std::abs(v - 6.0) < 1e-12);
  }
}

TEST(Dropout, ExpectationPreserved) {
  Dropout d(0.4, 6);
  Matrix x(1, 50000, 2.0);
  auto y = forward(d, x);
  double mean = 0.0;
  for (double v : y.flat()) mean += v;
  mean /= 50000.0;
  EXPECT_NEAR(mean, 2.0, 0.05);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.5, 7);
  Matrix x(1, 100, 1.0);
  auto y = forward(d, x);
  Matrix g(1, 100, 1.0);
  auto gx = backward(d, g);
  // Gradient must be zero exactly where the forward output was zeroed,
  // and scaled identically elsewhere.
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(gx[i], y[i]);
  }
}

TEST(HuberLoss, QuadraticInside) {
  Matrix pred{{0.5}};
  Matrix target{{0.0}};
  auto r = huber_loss(pred, target, 1.0);
  EXPECT_DOUBLE_EQ(r.value, 0.125);  // 0.5 * 0.25
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 0.5);
}

TEST(HuberLoss, LinearOutside) {
  Matrix pred{{3.0}};
  Matrix target{{0.0}};
  auto r = huber_loss(pred, target, 1.0);
  EXPECT_DOUBLE_EQ(r.value, 2.5);  // 1 * (3 - 0.5)
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 1.0);
  Matrix neg{{-3.0}};
  EXPECT_DOUBLE_EQ(huber_loss(neg, target, 1.0).grad(0, 0), -1.0);
}

TEST(HuberLoss, GradMatchesNumeric) {
  Rng rng(8);
  Matrix pred = Matrix::random_gaussian(3, 3, rng, 0.0, 2.0);
  Matrix target = Matrix::random_gaussian(3, 3, rng);
  auto r = huber_loss(pred, target, 0.8);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double orig = pred[i];
    pred[i] = orig + eps;
    const double up = huber_loss(pred, target, 0.8).value;
    pred[i] = orig - eps;
    const double down = huber_loss(pred, target, 0.8).value;
    pred[i] = orig;
    EXPECT_NEAR(r.grad[i], (up - down) / (2 * eps), 1e-6);
  }
}

TEST(LrSchedules, ConstantIsOne) {
  ConstantLr s;
  EXPECT_DOUBLE_EQ(s.multiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(s.multiplier(1000000), 1.0);
}

TEST(LrSchedules, StepDecay) {
  StepDecayLr s(10, 0.5);
  EXPECT_DOUBLE_EQ(s.multiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(s.multiplier(9), 1.0);
  EXPECT_DOUBLE_EQ(s.multiplier(10), 0.5);
  EXPECT_DOUBLE_EQ(s.multiplier(25), 0.25);
}

TEST(LrSchedules, CosineEndpoints) {
  CosineLr s(100, 0.1);
  EXPECT_NEAR(s.multiplier(0), 1.0, 1e-12);
  EXPECT_NEAR(s.multiplier(50), 0.55, 1e-12);
  EXPECT_NEAR(s.multiplier(100), 0.1, 1e-12);
  EXPECT_NEAR(s.multiplier(500), 0.1, 1e-12);
}

TEST(LrSchedules, CosineIsMonotoneDecreasing) {
  CosineLr s(50);
  double prev = 2.0;
  for (std::size_t t = 0; t <= 50; ++t) {
    const double m = s.multiplier(t);
    EXPECT_LT(m, prev);
    prev = m;
  }
}

TEST(LrSchedules, Warmup) {
  WarmupLr s(4);
  EXPECT_DOUBLE_EQ(s.multiplier(0), 0.25);
  EXPECT_DOUBLE_EQ(s.multiplier(1), 0.5);
  EXPECT_DOUBLE_EQ(s.multiplier(3), 1.0);
  EXPECT_DOUBLE_EQ(s.multiplier(100), 1.0);
}

TEST(ScheduledOptimizer, AppliesScheduleToSgd) {
  Rng rng(9);
  Dense net(2, 2, rng);
  Sgd opt(net, 1.0);
  ScheduledOptimizer sched(opt, std::make_unique<StepDecayLr>(2, 0.5));
  for (Matrix* g : net.grads()) g->fill(0.0);
  sched.step();  // t=0: lr 1.0
  EXPECT_DOUBLE_EQ(sched.current_lr(), 1.0);
  sched.step();  // t=1: lr 1.0
  sched.step();  // t=2: lr 0.5
  EXPECT_DOUBLE_EQ(sched.current_lr(), 0.5);
  EXPECT_EQ(sched.steps_taken(), 3u);
}

TEST(ScheduledOptimizer, CosineAnnealsTraining) {
  // Smoke test: an Adam + cosine schedule still minimizes a quadratic.
  Rng rng(10);
  Dense net(1, 1, rng, Init::Zero);
  net.weight()(0, 0) = 5.0;
  Adam opt(net, 0.5);
  ScheduledOptimizer sched(opt, std::make_unique<CosineLr>(100, 0.01));
  Matrix x{{1.0}};
  Matrix target{{0.0}};
  for (int t = 0; t < 100; ++t) {
    net.zero_grad();
    auto r = mse_loss(forward(net, x), target);
    backward(net, r.grad);
    sched.step();
  }
  // The quadratic's minimum is w + b = 0 (the model output), not w = 0.
  EXPECT_NEAR(forward(net, x)(0, 0), 0.0, 0.2);
}

TEST(RegularizationDeathTest, BadConfigsAbort) {
  EXPECT_DEATH(Dropout(1.0, 1), "precondition");
  EXPECT_DEATH(Dropout(-0.1, 1), "precondition");
  EXPECT_DEATH(StepDecayLr(0, 0.5), "precondition");
  EXPECT_DEATH(CosineLr(0), "precondition");
  EXPECT_DEATH(WarmupLr(0), "precondition");
  Matrix a(1, 1), b(1, 1);
  EXPECT_DEATH((void)huber_loss(a, b, 0.0), "precondition");
}

}  // namespace
}  // namespace fedra

#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

// A single-parameter "network" for exact step arithmetic.
class Scalar : public Module {
 public:
  explicit Scalar(double v) : p_(1, 1, v), g_(1, 1) {}
  std::vector<Matrix*> params() override { return {&p_}; }
  std::vector<Matrix*> grads() override { return {&g_}; }
  std::string name() const override { return "Scalar"; }

  double value() const { return p_[0]; }
  void set_grad(double g) { g_[0] = g; }

 private:
  Matrix p_;
  Matrix g_;
};

TEST(Sgd, PlainStep) {
  Scalar s(1.0);
  Sgd opt(s, 0.1);
  s.set_grad(2.0);
  opt.step();
  EXPECT_NEAR(s.value(), 0.8, 1e-15);
}

TEST(Sgd, MomentumAccumulates) {
  Scalar s(0.0);
  Sgd opt(s, 0.1, 0.9);
  s.set_grad(1.0);
  opt.step();  // v = 1, p = -0.1
  EXPECT_NEAR(s.value(), -0.1, 1e-15);
  opt.step();  // v = 1.9, p = -0.29
  EXPECT_NEAR(s.value(), -0.29, 1e-15);
}

TEST(Sgd, WeightDecayShrinksParams) {
  Scalar s(10.0);
  Sgd opt(s, 0.1, 0.0, 0.5);
  s.set_grad(0.0);
  opt.step();  // p -= lr * wd * p = 10 - 0.05*10
  EXPECT_NEAR(s.value(), 9.5, 1e-12);
}

TEST(Adam, FirstStepIsSignedLr) {
  // With bias correction the very first Adam step is ~lr * sign(grad).
  Scalar s(0.0);
  Adam opt(s, 0.01);
  s.set_grad(123.456);
  opt.step();
  EXPECT_NEAR(s.value(), -0.01, 1e-6);
  Scalar s2(0.0);
  Adam opt2(s2, 0.01);
  s2.set_grad(-0.001);
  opt2.step();
  EXPECT_NEAR(s2.value(), 0.01, 1e-5);
}

TEST(Adam, MatchesManualTwoSteps) {
  const double lr = 0.1, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  Scalar s(1.0);
  Adam opt(s, lr, b1, b2, eps);
  double p = 1.0, m = 0.0, v = 0.0;
  const double grads[2] = {0.5, -0.25};
  for (int t = 1; t <= 2; ++t) {
    const double g = grads[t - 1];
    s.set_grad(g);
    opt.step();
    m = b1 * m + (1 - b1) * g;
    v = b2 * v + (1 - b2) * g * g;
    const double mhat = m / (1 - std::pow(b1, t));
    const double vhat = v / (1 - std::pow(b2, t));
    p -= lr * mhat / (std::sqrt(vhat) + eps);
    EXPECT_NEAR(s.value(), p, 1e-12);
  }
}

TEST(Optimizer, ZeroGradClearsGradients) {
  Scalar s(0.0);
  Sgd opt(s, 0.1);
  s.set_grad(5.0);
  opt.zero_grad();
  opt.step();
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Optimizer, ClipGradNormScalesDown) {
  Rng rng(1);
  Dense d(3, 3, rng);
  Sgd opt(d, 0.1);
  for (Matrix* g : d.grads()) g->fill(10.0);
  double before = 0.0;
  for (Matrix* g : d.grads()) {
    for (double x : g->flat()) before += x * x;
  }
  before = std::sqrt(before);
  const double returned = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(returned, before, 1e-12);
  double after = 0.0;
  for (Matrix* g : d.grads()) {
    for (double x : g->flat()) after += x * x;
  }
  EXPECT_NEAR(std::sqrt(after), 1.0, 1e-9);
}

TEST(Optimizer, ClipGradNormNoopWhenSmall) {
  Scalar s(0.0);
  Sgd opt(s, 0.1);
  s.set_grad(0.5);
  opt.clip_grad_norm(1.0);
  opt.step();
  EXPECT_NEAR(s.value(), -0.05, 1e-15);
}

TEST(Optimizer, ExplicitParamListBinding) {
  Matrix p(1, 2, 1.0);
  Matrix g(1, 2, 1.0);
  Sgd opt({&p}, {&g}, 0.5);
  opt.step();
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(Optimizer, AdamExplicitListMatchesLayerBinding) {
  Scalar s1(2.0);
  Adam via_layer(s1, 0.05);
  Matrix p(1, 1, 2.0);
  Matrix g(1, 1);
  Adam via_list({&p}, {&g}, 0.05);
  for (int t = 0; t < 5; ++t) {
    s1.set_grad(1.0 + t);
    g[0] = 1.0 + t;
    via_layer.step();
    via_list.step();
    EXPECT_NEAR(s1.value(), p[0], 1e-14);
  }
}

TEST(OptimizerDeathTest, BadHyperparamsAbort) {
  Scalar s(0.0);
  EXPECT_DEATH(Sgd(s, -0.1), "precondition");
  EXPECT_DEATH(Sgd(s, 0.1, 1.0), "precondition");
  EXPECT_DEATH(Adam(s, 0.0), "precondition");
}

}  // namespace
}  // namespace fedra

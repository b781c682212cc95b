#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

TEST(MseLoss, PerfectPredictionIsZero) {
  Matrix p{{1.0, 2.0}, {3.0, 4.0}};
  auto r = mse_loss(p, p);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  for (double g : r.grad.flat()) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(MseLoss, KnownValue) {
  Matrix pred{{1.0, 2.0}};
  Matrix target{{0.0, 0.0}};
  auto r = mse_loss(pred, target);
  EXPECT_DOUBLE_EQ(r.value, 2.5);  // (1 + 4) / 2
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 1.0);  // 2*1/2
  EXPECT_DOUBLE_EQ(r.grad(0, 1), 2.0);
}

TEST(MseLoss, GradMatchesNumeric) {
  Rng rng(1);
  Matrix pred = Matrix::random_gaussian(3, 4, rng);
  Matrix target = Matrix::random_gaussian(3, 4, rng);
  auto r = mse_loss(pred, target);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double orig = pred[i];
    pred[i] = orig + eps;
    const double up = mse_loss(pred, target).value;
    pred[i] = orig - eps;
    const double down = mse_loss(pred, target).value;
    pred[i] = orig;
    EXPECT_NEAR(r.grad[i], (up - down) / (2 * eps), 1e-7);
  }
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  Matrix logits(2, 4);  // all-zero logits -> uniform softmax
  std::vector<std::size_t> labels{0, 3};
  auto r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.value, std::log(4.0), 1e-12);
}

TEST(CrossEntropy, ConfidentCorrectIsSmall) {
  Matrix logits{{20.0, 0.0, 0.0}};
  std::vector<std::size_t> labels{0};
  auto r = softmax_cross_entropy(logits, labels);
  EXPECT_LT(r.value, 1e-6);
}

TEST(CrossEntropy, GradIsSoftmaxMinusOnehotOverBatch) {
  Matrix logits{{1.0, 2.0, 0.5}, {0.0, 0.0, 0.0}};
  std::vector<std::size_t> labels{1, 2};
  Matrix probs;
  softmax_rows_into(logits, probs);
  auto r = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double expected =
          (probs(i, j) - (labels[i] == j ? 1.0 : 0.0)) / 2.0;
      EXPECT_NEAR(r.grad(i, j), expected, 1e-12);
    }
  }
}

TEST(CrossEntropy, GradMatchesNumeric) {
  Rng rng(2);
  Matrix logits = Matrix::random_gaussian(4, 5, rng);
  std::vector<std::size_t> labels{0, 2, 4, 1};
  auto r = softmax_cross_entropy(logits, labels);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double orig = logits[i];
    logits[i] = orig + eps;
    const double up = softmax_cross_entropy(logits, labels).value;
    logits[i] = orig - eps;
    const double down = softmax_cross_entropy(logits, labels).value;
    logits[i] = orig;
    EXPECT_NEAR(r.grad[i], (up - down) / (2 * eps), 1e-6);
  }
}

TEST(CrossEntropy, ExtremeLogitsStayFinite) {
  Matrix logits{{1000.0, -1000.0}};
  std::vector<std::size_t> labels{1};  // worst case: confident and wrong
  auto r = softmax_cross_entropy(logits, labels);
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_GT(r.value, 10.0);
}

TEST(Accuracy, AllCorrectAllWrong) {
  Matrix logits{{2.0, 1.0}, {0.0, 3.0}};
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 0.0);
}

TEST(Accuracy, Partial) {
  Matrix logits{{2.0, 1.0}, {0.0, 3.0}, {5.0, 0.0}, {0.0, 5.0}};
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 0, 0, 0}), 0.5);
}

TEST(LossDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_DEATH((void)mse_loss(a, b), "precondition");
  Matrix logits(2, 3);
  EXPECT_DEATH((void)softmax_cross_entropy(logits, {0}), "precondition");
  EXPECT_DEATH((void)softmax_cross_entropy(logits, {0, 5}), "precondition");
}

}  // namespace
}  // namespace fedra

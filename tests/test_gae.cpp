#include "rl/gae.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace fedra {
namespace {

TEST(Gae, SingleStepIsTdResidual) {
  auto adv = compute_gae({1.0}, {0.5}, {2.0}, {true}, 0.9, 0.95);
  // delta = 1 + 0.9*2 - 0.5 = 2.3.
  ASSERT_EQ(adv.size(), 1u);
  EXPECT_NEAR(adv[0], 2.3, 1e-12);
}

TEST(Gae, LambdaZeroIsOneStepTd) {
  std::vector<double> rewards{1.0, 2.0, 3.0};
  std::vector<double> values{0.1, 0.2, 0.3};
  std::vector<double> next_values{0.2, 0.3, 0.4};
  std::vector<bool> ends{false, false, true};
  auto adv = compute_gae(rewards, values, next_values, ends, 0.9, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    const double delta = rewards[i] + 0.9 * next_values[i] - values[i];
    EXPECT_NEAR(adv[i], delta, 1e-12);
  }
}

TEST(Gae, LambdaOneTelescopesToDiscountedSum) {
  // With lambda = 1 and a single episode, adv_t = sum_{k>=t}
  // gamma^{k-t} delta_k.
  std::vector<double> rewards{1.0, -1.0, 0.5};
  std::vector<double> values{0.3, 0.1, -0.2};
  std::vector<double> next_values{0.1, -0.2, 0.0};
  std::vector<bool> ends{false, false, true};
  const double gamma = 0.8;
  auto adv = compute_gae(rewards, values, next_values, ends, gamma, 1.0);
  std::vector<double> delta(3);
  for (std::size_t i = 0; i < 3; ++i) {
    delta[i] = rewards[i] + gamma * next_values[i] - values[i];
  }
  EXPECT_NEAR(adv[2], delta[2], 1e-12);
  EXPECT_NEAR(adv[1], delta[1] + gamma * delta[2], 1e-12);
  EXPECT_NEAR(adv[0],
              delta[0] + gamma * delta[1] + gamma * gamma * delta[2], 1e-12);
}

TEST(Gae, EpisodeBoundaryCutsCredit) {
  // Two one-step episodes: the second episode's advantage must not leak
  // into the first's recursion.
  std::vector<double> rewards{1.0, 100.0};
  std::vector<double> values{0.0, 0.0};
  std::vector<double> next_values{0.5, 0.5};
  std::vector<bool> ends{true, true};
  auto adv = compute_gae(rewards, values, next_values, ends, 0.9, 0.95);
  // Each advantage is its own delta only.
  EXPECT_NEAR(adv[0], 1.0 + 0.9 * 0.5, 1e-12);
  EXPECT_NEAR(adv[1], 100.0 + 0.9 * 0.5, 1e-12);
}

TEST(Gae, TruncationStillBootstraps) {
  // Even at an episode end (time-limit truncation) delta uses V(s').
  std::vector<double> rewards{0.0};
  std::vector<double> values{0.0};
  std::vector<double> next_values{10.0};
  std::vector<bool> ends{true};
  auto adv = compute_gae(rewards, values, next_values, ends, 0.5, 0.9);
  EXPECT_NEAR(adv[0], 5.0, 1e-12);
}

TEST(Gae, ReturnsEqualAdvantagePlusValue) {
  // adv_t + V(s_t) is the lambda-return, which recurses backwards as
  //   G_t = r_t + gamma * ((1 - lambda) V(s') + lambda G_{t+1})
  // within an episode and as r_t + gamma V(s') at its end.
  std::vector<double> rewards{1.0, 2.0, 3.0, 4.0};
  std::vector<double> values{0.5, 1.5, 2.5, 3.5};
  std::vector<double> next_values{1.5, 2.5, 3.5, 0.0};
  std::vector<bool> ends{false, true, false, true};
  const double gamma = 0.95, lambda = 0.9;
  auto adv = compute_gae(rewards, values, next_values, ends, gamma, lambda);
  double g = 0.0;
  for (std::size_t i = 4; i-- > 0;) {
    g = ends[i] ? rewards[i] + gamma * next_values[i]
                : rewards[i] + gamma * ((1.0 - lambda) * next_values[i] +
                                        lambda * g);
    EXPECT_NEAR(adv[i] + values[i], g, 1e-12);
  }
}

TEST(Gae, PerfectCriticGivesZeroAdvantage) {
  // If V is exactly the discounted return, every delta vanishes.
  const double gamma = 0.9;
  std::vector<double> rewards{1.0, 1.0, 1.0};
  // V(s_t) for a 3-step episode with terminal V(s') = 0.
  std::vector<double> values{1.0 + gamma + gamma * gamma, 1.0 + gamma, 1.0};
  std::vector<double> next_values{1.0 + gamma, 1.0, 0.0};
  std::vector<bool> ends{false, false, true};
  auto adv = compute_gae(rewards, values, next_values, ends, gamma, 0.95);
  for (double a : adv) EXPECT_NEAR(a, 0.0, 1e-12);
}

TEST(NormalizeAdvantages, ZeroMeanUnitStd) {
  std::vector<double> adv{1.0, 2.0, 3.0, 4.0, 5.0};
  normalize_advantages(adv);
  double mean = 0.0;
  for (double a : adv) mean += a;
  mean /= 5.0;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  double var = 0.0;
  for (double a : adv) var += (a - mean) * (a - mean);
  EXPECT_NEAR(std::sqrt(var / 4.0), 1.0, 1e-12);
}

TEST(NormalizeAdvantages, NoopOnDegenerateInput) {
  std::vector<double> single{5.0};
  normalize_advantages(single);
  EXPECT_DOUBLE_EQ(single[0], 5.0);
  std::vector<double> constant{2.0, 2.0, 2.0};
  normalize_advantages(constant);
  EXPECT_DOUBLE_EQ(constant[1], 2.0);
}

TEST(GaeDeathTest, MismatchedLengthsAbort) {
  EXPECT_DEATH(compute_gae({1.0}, {1.0, 2.0}, {1.0}, {true}, 0.9, 0.9),
               "precondition");
  EXPECT_DEATH(compute_gae({1.0}, {1.0}, {1.0}, {true}, 1.5, 0.9),
               "precondition");
}

}  // namespace
}  // namespace fedra

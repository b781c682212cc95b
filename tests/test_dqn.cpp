#include "rl/dqn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

namespace fedra {
namespace {

DqnConfig fast_config() {
  DqnConfig cfg;
  cfg.levels = 5;
  cfg.gamma = 0.0;
  cfg.warmup = 64;
  cfg.epsilon_decay_steps = 1000;
  cfg.target_sync_every = 50;
  return cfg;
}

TEST(Dqn, FractionLevelRoundTrip) {
  FactoredDqnAgent agent(2, 1, fast_config(), 1);
  EXPECT_DOUBLE_EQ(agent.fraction_of(0), 0.2);
  EXPECT_DOUBLE_EQ(agent.fraction_of(4), 1.0);
  EXPECT_EQ(agent.levels(), 5u);
}

TEST(Dqn, GreedyActionsAreValidFractions) {
  FactoredDqnAgent agent(3, 2, fast_config(), 2);
  auto a = agent.act({0.1, 0.2, 0.3});
  ASSERT_EQ(a.size(), 2u);
  for (double f : a) {
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
    // Must be one of the discrete levels.
    const double scaled = f * 5.0;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-12);
  }
}

TEST(Dqn, EpsilonAnneals) {
  DqnConfig cfg = fast_config();
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.1;
  cfg.epsilon_decay_steps = 100;
  FactoredDqnAgent agent(2, 1, cfg, 3);
  Rng rng(4);
  std::vector<double> state{0.0, 0.0};
  DqnStats first = agent.update(rng);  // before any steps: epsilon_start
  EXPECT_DOUBLE_EQ(first.epsilon, 1.0);
  for (int i = 0; i < 200; ++i) agent.act_epsilon_greedy(state, rng);
  DqnStats later = agent.update(rng);
  EXPECT_DOUBLE_EQ(later.epsilon, 0.1);
}

TEST(Dqn, ExplorationVisitsAllLevels) {
  DqnConfig cfg = fast_config();
  cfg.epsilon_end = 1.0;  // always explore
  FactoredDqnAgent agent(2, 1, cfg, 5);
  Rng rng(6);
  std::set<long long> seen;
  for (int i = 0; i < 300; ++i) {
    const auto a = agent.act_epsilon_greedy({0.0, 0.0}, rng);
    seen.insert(std::llround(a[0] * 5.0));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Dqn, NoUpdateBeforeWarmup) {
  FactoredDqnAgent agent(2, 1, fast_config(), 7);
  Rng rng(8);
  OffPolicyTransition t;
  t.state = {0.0, 0.0};
  t.next_state = {0.0, 0.0};
  t.action = {0.2};
  for (int i = 0; i < 10; ++i) agent.remember(t);
  EXPECT_DOUBLE_EQ(agent.update(rng).td_loss, 0.0);
}

TEST(Dqn, SolvesDiscretizedBandit) {
  // reward = -(a - 0.6)^2 over levels {0.2, 0.4, 0.6, 0.8, 1.0}: the
  // greedy policy must lock onto level 0.6.
  DqnConfig cfg = fast_config();
  cfg.epsilon_decay_steps = 2000;
  FactoredDqnAgent agent(2, 1, cfg, 9);
  Rng rng(10);
  const std::vector<double> state{0.0, 0.0};
  for (int step = 0; step < 4000; ++step) {
    const auto a = agent.act_epsilon_greedy(state, rng);
    const double d = a[0] - 0.6;
    OffPolicyTransition t;
    t.state = state;
    t.next_state = state;
    t.action = a;
    t.reward = -d * d;
    agent.remember(std::move(t));
    agent.update(rng);
  }
  EXPECT_DOUBLE_EQ(agent.act(state)[0], 0.6);
  // Q-values must rank the optimal level on top.
  auto q = agent.q_values(state);
  EXPECT_EQ(q.rows(), 1u);
  EXPECT_EQ(q.cols(), 5u);
}

TEST(Dqn, TwoDeviceFactoredBandit) {
  // Separable reward: -(a0 - 0.4)^2 - (a1 - 1.0)^2. The factored heads
  // can solve separable problems (the non-separable case is what the
  // ablation bench probes).
  DqnConfig cfg = fast_config();
  cfg.epsilon_decay_steps = 3000;
  FactoredDqnAgent agent(2, 2, cfg, 11);
  Rng rng(12);
  const std::vector<double> state{0.0, 0.0};
  for (int step = 0; step < 6000; ++step) {
    const auto a = agent.act_epsilon_greedy(state, rng);
    const double d0 = a[0] - 0.4;
    const double d1 = a[1] - 1.0;
    OffPolicyTransition t;
    t.state = state;
    t.next_state = state;
    t.action = a;
    t.reward = -d0 * d0 - d1 * d1;
    agent.remember(std::move(t));
    agent.update(rng);
  }
  const auto a = agent.act(state);
  EXPECT_DOUBLE_EQ(a[0], 0.4);
  EXPECT_DOUBLE_EQ(a[1], 1.0);
}

// Bitwise pin: a mismatch prints the actual value as a hex-float literal.
void expect_bits(double actual, double pinned) {
  std::ostringstream os;
  os << std::hexfloat << actual;
  EXPECT_EQ(actual, pinned) << "actual " << os.str();
}

TEST(Dqn, SeededUpdatesArePinned) {
  // gamma > 0 so the target network's forward enters every TD target.
  DqnConfig cfg = fast_config();
  cfg.gamma = 0.5;
  cfg.batch_size = 16;
  cfg.warmup = 32;
  FactoredDqnAgent agent(3, 2, cfg, 41);
  auto state_at = [](int i) {
    return std::vector<double>{std::sin(0.7 * i), std::cos(0.3 * i),
                               0.1 * (i % 5)};
  };
  const Matrix q0 = agent.q_values(state_at(0));
  expect_bits(q0(0, 0), -0x1.b7a80947fbd1bp+0);
  expect_bits(q0(1, 4), 0x1.28b153c690746p+1);
  const auto first = agent.act(state_at(0));
  expect_bits(first[0], 0x1.3333333333333p-1);
  expect_bits(first[1], 0x1p+0);
  Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    OffPolicyTransition t;
    t.state = state_at(i);
    t.next_state = state_at(i + 1);
    t.action = agent.act_epsilon_greedy(t.state, rng);
    t.reward = -std::abs(t.action[0] - 0.6) - std::abs(t.action[1] - 0.4);
    agent.remember(std::move(t));
  }
  const double pinned[3] = {0x1.81b2df55cc30ep-1, 0x1.2765e7df033e6p-1,
                            0x1.571a380c8ca8ep-1};
  for (int u = 0; u < 3; ++u) {
    expect_bits(agent.update(rng).td_loss, pinned[u]);
  }
}

TEST(DqnDeathTest, BadConfigsAbort) {
  DqnConfig cfg = fast_config();
  cfg.levels = 1;
  EXPECT_DEATH(FactoredDqnAgent(2, 1, cfg, 1), "precondition");
  DqnConfig cfg2 = fast_config();
  cfg2.gamma = 1.0;
  EXPECT_DEATH(FactoredDqnAgent(2, 1, cfg2, 1), "precondition");
}

}  // namespace
}  // namespace fedra

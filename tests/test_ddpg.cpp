#include "rl/ddpg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

namespace fedra {
namespace {

TEST(ReplayBuffer, PushAndSizeUpToCapacity) {
  ReplayBuffer buf(3);
  OffPolicyTransition t;
  t.state = {1.0};
  t.next_state = {1.0};
  t.action = {0.5};
  for (int i = 0; i < 5; ++i) {
    t.reward = i;
    buf.push(t);
    EXPECT_EQ(buf.size(), std::min<std::size_t>(i + 1, 3));
  }
}

TEST(ReplayBuffer, RingOverwritesOldest) {
  ReplayBuffer buf(2);
  OffPolicyTransition t;
  t.state = {0.0};
  t.next_state = {0.0};
  t.action = {0.5};
  for (int i = 0; i < 4; ++i) {
    t.reward = i;
    buf.push(t);
  }
  // Only rewards {2, 3} survive; sample many and check the support.
  Rng rng(1);
  std::set<double> seen;
  for (int i = 0; i < 200; ++i) {
    auto batch = buf.sample(1, rng);
    seen.insert(batch.rewards[0]);
  }
  EXPECT_EQ(seen, (std::set<double>{2.0, 3.0}));
}

TEST(ReplayBuffer, SampleShapes) {
  ReplayBuffer buf(10);
  OffPolicyTransition t;
  t.state = {1.0, 2.0, 3.0};
  t.next_state = {4.0, 5.0, 6.0};
  t.action = {0.1, 0.9};
  t.reward = -1.5;
  buf.push(t);
  Rng rng(2);
  auto batch = buf.sample(4, rng);
  EXPECT_EQ(batch.states.rows(), 4u);
  EXPECT_EQ(batch.states.cols(), 3u);
  EXPECT_EQ(batch.actions.cols(), 2u);
  EXPECT_EQ(batch.next_states.cols(), 3u);
  EXPECT_DOUBLE_EQ(batch.rewards[0], -1.5);
  EXPECT_DOUBLE_EQ(batch.next_states(2, 1), 5.0);
}

TEST(ReplayBufferDeathTest, InvalidUseAborts) {
  EXPECT_DEATH(ReplayBuffer(0), "precondition");
  ReplayBuffer buf(2);
  Rng rng(3);
  EXPECT_DEATH((void)buf.sample(1, rng), "precondition");
  OffPolicyTransition bad;
  bad.state = {1.0};
  bad.next_state = {1.0, 2.0};  // dim mismatch
  bad.action = {0.5};
  EXPECT_DEATH(buf.push(bad), "precondition");
}

TEST(Ddpg, ActionsWithinBounds) {
  DdpgConfig cfg;
  DdpgAgent agent(3, 2, cfg, 1);
  Rng rng(2);
  std::vector<double> state{0.1, 0.2, 0.3};
  for (int i = 0; i < 50; ++i) {
    for (double a : agent.act_noisy(state, rng)) {
      EXPECT_GE(a, cfg.action_floor);
      EXPECT_LE(a, 1.0);
    }
  }
  auto det = agent.act(state);
  EXPECT_EQ(det, agent.act(state));  // deterministic policy
}

TEST(Ddpg, NoUpdateBeforeWarmup) {
  DdpgConfig cfg;
  cfg.warmup = 100;
  DdpgAgent agent(2, 1, cfg, 3);
  Rng rng(4);
  OffPolicyTransition t;
  t.state = {0.0, 0.0};
  t.next_state = {0.0, 0.0};
  t.action = {0.5};
  for (int i = 0; i < 10; ++i) agent.remember(t);
  auto stats = agent.update(rng);
  EXPECT_DOUBLE_EQ(stats.critic_loss, 0.0);
  EXPECT_DOUBLE_EQ(stats.actor_objective, 0.0);
}

TEST(Ddpg, SolvesContinuousBandit) {
  // reward = -(a - 0.7)^2, uninformative state, gamma = 0 (pure bandit).
  DdpgConfig cfg;
  cfg.gamma = 0.0;
  cfg.warmup = 64;
  cfg.noise_std = 0.2;
  cfg.actor_lr = 3e-4;
  cfg.critic_lr = 2e-3;
  DdpgAgent agent(2, 1, cfg, 5);
  Rng rng(6);
  const std::vector<double> state{0.0, 0.0};
  const double target = 0.7;
  for (int step = 0; step < 4000; ++step) {
    const auto action = agent.act_noisy(state, rng);
    const double d = action[0] - target;
    OffPolicyTransition t;
    t.state = state;
    t.next_state = state;
    t.action = action;
    t.reward = -d * d;
    agent.remember(std::move(t));
    agent.update(rng);
  }
  EXPECT_NEAR(agent.act(state)[0], target, 0.1);
}

TEST(Ddpg, CriticLearnsBanditValues) {
  DdpgConfig cfg;
  cfg.gamma = 0.0;
  cfg.warmup = 64;
  cfg.noise_std = 0.3;
  DdpgAgent agent(2, 1, cfg, 7);
  Rng rng(8);
  const std::vector<double> state{0.0, 0.0};
  for (int step = 0; step < 4000; ++step) {
    const auto action = agent.act_noisy(state, rng);
    const double d = action[0] - 0.5;
    OffPolicyTransition t;
    t.state = state;
    t.next_state = state;
    t.action = action;
    t.reward = -d * d;
    agent.remember(std::move(t));
    agent.update(rng);
  }
  // Q(s, 0.5) should be near 0; Q(s, 0.9) near -0.16.
  EXPECT_NEAR(agent.q_value(state, {0.5}), 0.0, 0.05);
  EXPECT_NEAR(agent.q_value(state, {0.9}), -0.16, 0.08);
}

TEST(Ddpg, UpdateStatsFiniteAfterWarmup) {
  DdpgConfig cfg;
  cfg.warmup = 32;
  DdpgAgent agent(2, 2, cfg, 9);
  Rng rng(10);
  OffPolicyTransition t;
  t.state = {0.5, 0.5};
  t.next_state = {0.4, 0.6};
  t.action = {0.3, 0.8};
  t.reward = -1.0;
  for (int i = 0; i < 64; ++i) agent.remember(t);
  auto stats = agent.update(rng);
  EXPECT_TRUE(std::isfinite(stats.critic_loss));
  EXPECT_TRUE(std::isfinite(stats.actor_objective));
  EXPECT_GT(stats.critic_loss, 0.0);
}

// Bitwise pin: a mismatch prints the actual value as a hex-float literal.
void expect_bits(double actual, double pinned) {
  std::ostringstream os;
  os << std::hexfloat << actual;
  EXPECT_EQ(actual, pinned) << "actual " << os.str();
}

TEST(Ddpg, SeededUpdatesArePinned) {
  // gamma > 0 so the target actor and target critic both enter the TD
  // target; the actor step chains through the critic's input gradient.
  DdpgConfig cfg;
  cfg.gamma = 0.9;
  cfg.warmup = 32;
  cfg.batch_size = 16;
  DdpgAgent agent(3, 2, cfg, 51);
  auto state_at = [](int i) {
    return std::vector<double>{std::sin(0.7 * i), std::cos(0.3 * i),
                               0.1 * (i % 5)};
  };
  const auto first = agent.act(state_at(0));
  expect_bits(first[0], 0x1.0a3fa05ea890ep-1);
  expect_bits(first[1], 0x1.0f95ea7f7b14ap-1);
  Rng rng(52);
  for (int i = 0; i < 40; ++i) {
    OffPolicyTransition t;
    t.state = state_at(i);
    t.next_state = state_at(i + 1);
    t.action = agent.act_noisy(t.state, rng);
    t.reward = -std::abs(t.action[0] - 0.6) - std::abs(t.action[1] - 0.4);
    agent.remember(std::move(t));
  }
  const double pinned[3][2] = {{0x1.54df19a62ac98p-3, -0x1.33f2c1960e32p-3},
                               {0x1.2d0d720b54e1ep-4, -0x1.007474708153ep-2},
                               {0x1.19a5822e90479p-5, -0x1.13043f71f75ebp-2}};
  for (int u = 0; u < 3; ++u) {
    const DdpgStats stats = agent.update(rng);
    expect_bits(stats.critic_loss, pinned[u][0]);
    expect_bits(stats.actor_objective, pinned[u][1]);
  }
}

}  // namespace
}  // namespace fedra

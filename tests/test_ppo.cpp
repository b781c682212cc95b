#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "rl/a2c.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

// A 1-action continuous bandit: reward = -(a - target)^2 with a state that
// carries no information. A competent policy-gradient implementation must
// drive the mean action to `target`.
struct Bandit {
  double target = 0.7;
  std::vector<double> state{0.0, 0.0};

  double reward(double action) const {
    const double d = action - target;
    return -d * d;
  }
};

RolloutBuffer collect(Bandit& env, PpoAgent& agent, std::size_t steps,
                      Rng& rng) {
  RolloutBuffer buffer(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    auto s = agent.act(env.state, rng);
    Transition t;
    t.state = env.state;
    t.next_state = env.state;
    t.action_u = s.action_u;
    t.log_prob = s.log_prob;
    t.reward = env.reward(s.action[0]);
    t.value = agent.value(env.state);
    t.next_value = t.value;
    t.episode_end = true;  // 1-step episodes
    buffer.push(std::move(t));
  }
  return buffer;
}

PpoConfig fast_ppo() {
  PpoConfig cfg;
  cfg.gamma = 0.0;  // bandit: no bootstrapping
  cfg.update_epochs = 5;
  cfg.minibatch_size = 32;
  cfg.actor_lr = 5e-3;
  cfg.critic_lr = 5e-3;
  cfg.entropy_coef = 1e-4;
  return cfg;
}

TEST(Ppo, SolvesContinuousBandit) {
  PolicyConfig pcfg;
  pcfg.hidden = {16};
  PpoAgent agent(2, 1, pcfg, fast_ppo(), 1);
  Bandit env;
  Rng rng(2);
  for (int round = 0; round < 60; ++round) {
    auto buffer = collect(env, agent, 128, rng);
    agent.update(buffer, rng);
  }
  const double learned = agent.mean_action(env.state)[0];
  EXPECT_NEAR(learned, env.target, 0.08);
}

TEST(Ppo, ImprovesAverageReward) {
  PolicyConfig pcfg;
  pcfg.hidden = {16};
  PpoAgent agent(2, 1, pcfg, fast_ppo(), 3);
  Bandit env;
  Rng rng(4);
  auto avg_reward = [&](Rng& r) {
    double acc = 0.0;
    for (int i = 0; i < 500; ++i) {
      acc += env.reward(agent.act(env.state, r).action[0]);
    }
    return acc / 500.0;
  };
  Rng eval1(100);
  const double before = avg_reward(eval1);
  for (int round = 0; round < 40; ++round) {
    auto buffer = collect(env, agent, 128, rng);
    agent.update(buffer, rng);
  }
  Rng eval2(100);
  EXPECT_GT(avg_reward(eval2), before + 0.01);
}

TEST(Ppo, UpdateSyncsBehaviorPolicy) {
  PolicyConfig pcfg;
  PpoAgent agent(2, 1, pcfg, fast_ppo(), 5);
  Bandit env;
  Rng rng(6);
  auto buffer = collect(env, agent, 64, rng);
  agent.update(buffer, rng);
  // Algorithm 1 line 22: after the update, theta_old == theta_a.
  std::vector<double> state{0.3, -0.3};
  EXPECT_EQ(agent.policy().mean_action(state),
            agent.behavior_policy().mean_action(state));
}

TEST(Ppo, UpdateStatsAreFinite) {
  PolicyConfig pcfg;
  PpoAgent agent(2, 1, pcfg, fast_ppo(), 7);
  Bandit env;
  Rng rng(8);
  auto buffer = collect(env, agent, 64, rng);
  auto stats = agent.update(buffer, rng);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
  EXPECT_TRUE(std::isfinite(stats.entropy));
  EXPECT_TRUE(std::isfinite(stats.approx_kl));
  EXPECT_GE(stats.clip_fraction, 0.0);
  EXPECT_LE(stats.clip_fraction, 1.0);
}

TEST(Ppo, CriticLearnsBanditValue) {
  // With gamma = 0 the value of the (only) state is the mean reward under
  // the current policy; after training on a converged policy the critic
  // should be close to the optimum reward ~ 0.
  PolicyConfig pcfg;
  pcfg.hidden = {16};
  PpoAgent agent(2, 1, pcfg, fast_ppo(), 9);
  Bandit env;
  Rng rng(10);
  for (int round = 0; round < 60; ++round) {
    auto buffer = collect(env, agent, 128, rng);
    agent.update(buffer, rng);
  }
  EXPECT_NEAR(agent.value(env.state), 0.0, 0.1);
}

TEST(Ppo, ClipKeepsKlSmall) {
  PolicyConfig pcfg;
  PpoConfig cfg = fast_ppo();
  cfg.clip_epsilon = 0.1;
  PpoAgent agent(2, 1, pcfg, cfg, 11);
  Bandit env;
  Rng rng(12);
  for (int round = 0; round < 10; ++round) {
    auto buffer = collect(env, agent, 128, rng);
    auto stats = agent.update(buffer, rng);
    // PPO's whole point: bounded per-update policy deviation.
    EXPECT_LT(std::abs(stats.approx_kl), 0.6);
  }
}

TEST(Ppo, SaveLoadRoundTrip) {
  const std::string prefix = ::testing::TempDir() + "fedra_ppo";
  PolicyConfig pcfg;
  PpoAgent a(2, 1, pcfg, fast_ppo(), 13);
  PpoAgent b(2, 1, pcfg, fast_ppo(), 14);
  std::vector<double> state{0.5, 0.5};
  EXPECT_NE(a.mean_action(state), b.mean_action(state));
  a.save(prefix);
  b.load(prefix);
  EXPECT_EQ(a.mean_action(state), b.mean_action(state));
  EXPECT_NEAR(a.value(state), b.value(state), 1e-12);
  std::remove((prefix + ".actor").c_str());
  std::remove((prefix + ".critic").c_str());
}

TEST(Ppo, StateDependentStdSolvesBandit) {
  PolicyConfig pcfg;
  pcfg.hidden = {16};
  pcfg.state_dependent_std = true;
  PpoAgent agent(2, 1, pcfg, fast_ppo(), 31);
  Bandit env;
  Rng rng(32);
  for (int round = 0; round < 60; ++round) {
    auto buffer = collect(env, agent, 128, rng);
    auto stats = agent.update(buffer, rng);
    EXPECT_TRUE(std::isfinite(stats.entropy));
  }
  EXPECT_NEAR(agent.mean_action(env.state)[0], env.target, 0.1);
}

TEST(Ppo, HuberCriticAlsoSolvesBandit) {
  PolicyConfig pcfg;
  pcfg.hidden = {16};
  PpoConfig cfg = fast_ppo();
  cfg.critic_huber_delta = 0.5;
  PpoAgent agent(2, 1, pcfg, cfg, 21);
  Bandit env;
  Rng rng(22);
  for (int round = 0; round < 60; ++round) {
    auto buffer = collect(env, agent, 128, rng);
    auto stats = agent.update(buffer, rng);
    EXPECT_TRUE(std::isfinite(stats.value_loss));
  }
  EXPECT_NEAR(agent.mean_action(env.state)[0], env.target, 0.1);
}

TEST(A2c, AlsoSolvesBanditButIsUsable) {
  PolicyConfig pcfg;
  pcfg.hidden = {16};
  PpoConfig cfg = fast_ppo();
  cfg.actor_lr = 1e-2;
  A2cAgent agent(2, 1, pcfg, cfg, 15);
  Bandit env;
  Rng rng(16);
  for (int round = 0; round < 150; ++round) {
    RolloutBuffer buffer(128);
    for (int i = 0; i < 128; ++i) {
      auto s = agent.act(env.state, rng);
      Transition t;
      t.state = env.state;
      t.next_state = env.state;
      t.action_u = s.action_u;
      t.log_prob = s.log_prob;
      t.reward = env.reward(s.action[0]);
      t.value = agent.value(env.state);
      t.next_value = t.value;
      t.episode_end = true;
      buffer.push(std::move(t));
    }
    agent.update(buffer, rng);
  }
  EXPECT_NEAR(agent.mean_action(env.state)[0], env.target, 0.15);
}

TEST(Ppo, ActIsTensorAllocationFree) {
  // The rollout hot path: once the inference buffers have warmed up, a
  // stochastic act() must not touch the tensor heap.
  PolicyConfig pcfg;
  PpoAgent agent(2, 1, pcfg, fast_ppo(), 21);
  Rng rng(22);
  const std::vector<double> state{0.25, -0.5};
  for (int i = 0; i < 3; ++i) agent.act(state, rng);
  const TensorAllocStats before = tensor_alloc_stats();
  for (int i = 0; i < 50; ++i) agent.act(state, rng);
  const TensorAllocStats after = tensor_alloc_stats();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(Ppo, UpdateIsTensorAllocationFree) {
  // A full update (every epoch and minibatch, actor and critic) on the
  // testbed-sized nets: once one update has sized the workspaces, later
  // updates must not touch the tensor heap.
  const std::size_t state_dim = 27;  // 3 devices x 9 state features
  const std::size_t action_dim = 3;
  PolicyConfig pcfg;
  PpoConfig cfg;
  cfg.update_epochs = 4;
  cfg.minibatch_size = 64;
  PpoAgent agent(state_dim, action_dim, pcfg, cfg, 17);

  RolloutBuffer buffer(256);
  Rng env_rng(23);
  std::vector<double> state(state_dim);
  while (!buffer.full()) {
    Transition t;
    for (auto& s : state) s = env_rng.uniform();
    t.state = state;
    for (auto& s : state) s = env_rng.uniform();
    t.next_state = state;
    auto sample = agent.act(t.state, env_rng);
    t.action_u = sample.action_u;
    t.log_prob = sample.log_prob;
    t.reward = env_rng.uniform() - 0.5;
    t.value = agent.value(t.state);
    t.next_value = agent.value(t.next_state);
    t.episode_end = buffer.size() % 40 == 39;
    buffer.push(std::move(t));
  }

  Rng update_rng(31);
  agent.update(buffer, update_rng);
  const TensorAllocStats before = tensor_alloc_stats();
  for (int i = 0; i < 4; ++i) agent.update(buffer, update_rng);
  const TensorAllocStats after = tensor_alloc_stats();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.bytes, before.bytes);
}

// Bitwise pin: a mismatch prints the actual value as a hex-float literal.
void expect_bits(double actual, double pinned) {
  std::ostringstream os;
  os << std::hexfloat << actual;
  EXPECT_EQ(actual, pinned) << "actual " << os.str();
}

TEST(A2c, SeededUpdatesArePinned) {
  // Three updates on a bootstrapped (gamma > 0) task whose next states
  // differ from the states, so both critic forwards of the update matter.
  PolicyConfig pcfg;
  pcfg.hidden = {16};
  PpoConfig cfg = fast_ppo();
  cfg.gamma = 0.9;
  A2cAgent agent(2, 1, pcfg, cfg, 31);
  Rng rng(32);
  auto state_at = [](int i) {
    return std::vector<double>{std::sin(0.7 * i), std::cos(0.3 * i)};
  };
  const PolicySample first = agent.act(state_at(0), rng);
  expect_bits(first.action[0], 0x1.3579b339a633dp-1);
  expect_bits(first.log_prob, -0x1.5f0083aac1709p+0);
  const double pinned[3][2] = {{-0x1.2aee6c93351dfp-4, 0x1.0d077679fcabap-8},
                               {0x1.6899c3964be7cp-4, 0x1.3542f2464c6d3p-4},
                               {-0x1.662d064d67675p-3, 0x1.ade32984d7ab7p-7}};
  for (int u = 0; u < 3; ++u) {
    RolloutBuffer buffer(32);
    for (int i = 0; i < 32; ++i) {
      const auto s = state_at(i);
      const auto next = state_at(i + 1);
      auto a = agent.act(s, rng);
      Transition t;
      t.state = s;
      t.next_state = next;
      t.action_u = a.action_u;
      t.log_prob = a.log_prob;
      const double d = a.action[0] - 0.5 - 0.2 * s[0];
      t.reward = -d * d;
      t.value = agent.value(s);
      t.next_value = agent.value(next);
      t.episode_end = (i % 8 == 7);
      buffer.push(std::move(t));
    }
    const UpdateStats stats = agent.update(buffer, rng);
    expect_bits(stats.policy_loss, pinned[u][0]);
    expect_bits(stats.value_loss, pinned[u][1]);
  }
}

TEST(RolloutBuffer, MatrixViewsMatchTransitions) {
  RolloutBuffer buffer(4);
  for (int i = 0; i < 3; ++i) {
    Transition t;
    t.state = {static_cast<double>(i), 1.0};
    t.next_state = {static_cast<double>(i + 1), 1.0};
    t.action_u = {static_cast<double>(-i)};
    t.log_prob = 0.1 * i;
    t.reward = 2.0 * i;
    t.value = 0.5;
    t.next_value = 0.6;
    t.episode_end = (i == 2);
    buffer.push(std::move(t));
  }
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_FALSE(buffer.full());
  auto states = buffer.states_matrix();
  EXPECT_DOUBLE_EQ(states(2, 0), 2.0);
  auto next_states = buffer.next_states_matrix();
  EXPECT_DOUBLE_EQ(next_states(2, 0), 3.0);
  auto actions = buffer.actions_matrix();
  EXPECT_DOUBLE_EQ(actions(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(buffer.rewards()[2], 4.0);
  auto ends = buffer.episode_ends();
  EXPECT_FALSE(ends[0]);
  EXPECT_TRUE(ends[2]);
  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(RolloutBufferDeathTest, OverfillAborts) {
  RolloutBuffer buffer(1);
  Transition t;
  t.state = {1.0};
  t.next_state = {1.0};
  t.action_u = {0.0};
  buffer.push(t);
  EXPECT_DEATH(buffer.push(t), "precondition");
}

}  // namespace
}  // namespace fedra

#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <sstream>
#include <thread>

#include "core/offline_trainer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

// Three PPO updates on testbed-shaped nets (27 -> 64 -> 64 -> 3 actor and
// critic, recommended_trainer_config().ppo: 10 epochs of 64-row
// minibatches over a 512-transition buffer). Each row of `pinned` holds
// one update's policy_loss, value_loss, approx_kl, clip_fraction, then
// parameter entries: actor W0(0,0), actor output bias[0], log_std[0],
// critic W0(0,0) and critic output bias.
void expect_pinned_ppo_updates(const double (&pinned)[3][9]) {
  const std::size_t state_dim = 27;
  const std::size_t action_dim = 3;
  const TrainerConfig tc = recommended_trainer_config();
  PpoAgent agent(state_dim, action_dim, tc.policy, tc.ppo, 41);
  Rng rng(42);
  auto state_at = [&](int i) {
    std::vector<double> s(state_dim);
    for (std::size_t j = 0; j < state_dim; ++j) {
      s[j] = std::sin(0.37 * i + 0.91 * static_cast<double>(j));
    }
    return s;
  };
  int step = 0;
  for (int u = 0; u < 3; ++u) {
    RolloutBuffer buffer(tc.buffer_capacity);
    while (!buffer.full()) {
      const auto s = state_at(step);
      const auto next = state_at(step + 1);
      auto a = agent.act(s, rng);
      Transition t;
      t.state = s;
      t.next_state = next;
      t.action_u = a.action_u;
      t.log_prob = a.log_prob;
      double r = 0.0;
      for (std::size_t j = 0; j < action_dim; ++j) {
        const double d = a.action[j] - 0.5 - 0.3 * s[j];
        r -= d * d;
      }
      t.reward = 4.0 * r;
      t.value = agent.value(s);
      t.next_value = agent.value(next);
      t.episode_end = (step % 40 == 39);
      buffer.push(std::move(t));
      ++step;
    }
    const UpdateStats stats = agent.update(buffer, rng);
    auto actor = agent.policy().mean_net().params();
    auto critic = agent.critic().params();
    const double got[9] = {stats.policy_loss,
                           stats.value_loss,
                           stats.approx_kl,
                           stats.clip_fraction,
                           (*actor.front())(0, 0),
                           (*actor.back())[0],
                           agent.policy().log_std()[0],
                           (*critic.front())(0, 0),
                           (*critic.back())[0]};
    for (int k = 0; k < 9; ++k) {
      SCOPED_TRACE("update " + std::to_string(u) + " entry " +
                   std::to_string(k));
      expect_bits(got[k], pinned[u][k]);
    }
  }
}

TEST(Ppo, SeededUpdatesArePinned) {
  const double squared[3][9] = {
      {-0x1.12d381f09846p-4, 0x1.a31f51794454ap-2, 0x1.2990d94ac21e6p-3,
       0x1.d166666666666p-2, 0x1.c6d3a03927e5cp-4, 0x1.c6a304336194p-18,
       -0x1.353e4656e4db6p+0, 0x1.04b53b3560876p-4, -0x1.ac30e9d26f062p-5},
      {-0x1.63c341b5a7c5cp-4, 0x1.4571d9a474f3bp-4, 0x1.c007fced21c3dp-3,
       0x1.071999999999ap-1, 0x1.c290dbcad3f95p-4, -0x1.a8ab3dc32f23cp-11,
       -0x1.399841479bbddp+0, 0x1.a56f4648a76bcp-5, -0x1.9251c9b640e3ep-5},
      {-0x1.c4dc254ca50d2p-4, 0x1.d881b29391d33p-5, 0x1.8b25dc4121264p-4,
       0x1.2566666666666p-1, 0x1.ca334775a4c09p-4, -0x1.5138beac1fc0cp-9,
       -0x1.3e44b0c7e44b3p+0, 0x1.dc60362d2fd1fp-5, -0x1.7db38e37f9f16p-5}};
  expect_pinned_ppo_updates(squared);
}

/// A buffer whose states vary from row to row (unlike `collect`), so
/// per-row policy outputs and TD targets differ.
RolloutBuffer varied_buffer(PpoAgent& agent, std::size_t steps, Rng& rng) {
  RolloutBuffer buffer(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const double x = static_cast<double>(i);
    Transition t;
    t.state = {std::sin(0.7 * x), std::cos(0.3 * x)};
    t.next_state = {std::sin(0.7 * (x + 1.0)), std::cos(0.3 * (x + 1.0))};
    auto a = agent.act(t.state, rng);
    t.action_u = a.action_u;
    t.log_prob = a.log_prob;
    const double d = a.action[0] - 0.5 - 0.2 * t.state[0];
    t.reward = -d * d;
    t.value = agent.value(t.state);
    t.next_value = agent.value(t.next_state);
    t.episode_end = (i % 16 == 15);
    buffer.push(std::move(t));
  }
  return buffer;
}

std::vector<double> all_params(PpoAgent& agent) {
  std::vector<double> values;
  auto append = [&](const std::vector<Matrix*>& ps) {
    for (const Matrix* p : ps) {
      values.insert(values.end(), p->data(), p->data() + p->size());
    }
  };
  append(agent.policy().params());
  append(agent.critic().params());
  return values;
}

TEST(Ppo, UpdateBitsDoNotDependOnWhichThreadRunsTheActor) {
  // update() forks the actor's epochs onto global_pool(). A free worker
  // may take them; the join runs them itself when every worker is busy;
  // a caller that is a worker of global_pool() forks into its own deque;
  // a caller on another pool's worker forks into global_pool() from
  // outside. Every path must produce the bits of the plain call.
  PolicyConfig pcfg;
  PpoConfig cfg = fast_ppo();
  cfg.gamma = 0.9;
  PpoAgent source(2, 1, pcfg, cfg, 51);
  Rng collect_rng(52);
  const RolloutBuffer buffer = varied_buffer(source, 100, collect_rng);

  struct Outcome {
    UpdateStats stats;
    std::vector<double> params;
  };
  auto update_with = [&](const std::function<void(std::function<void()>)>&
                             call_site) {
    PpoAgent agent(2, 1, pcfg, cfg, 53);
    Rng rng(54);
    Outcome out;
    for (int u = 0; u < 2; ++u) {
      call_site([&] { out.stats = agent.update(buffer, rng); });
    }
    out.params = all_params(agent);
    return out;
  };

  const Outcome plain = update_with([](auto run) { run(); });

  ThreadPool& pool = global_pool();
  const Outcome busy = update_with([&](auto run) {
    // Park every worker so the actor task waits for the join.
    std::atomic<std::size_t> parked{0};
    std::atomic<bool> release{false};
    TaskGroup blockers(pool);
    for (std::size_t w = 0; w < pool.size(); ++w) {
      blockers.run([&] {
        parked.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    }
    while (parked.load() < pool.size()) std::this_thread::yield();
    run();
    release.store(true);
    blockers.wait();
  });

  const Outcome same_pool = update_with([&](auto run) {
    TaskGroup caller(pool);
    caller.run(run);
    caller.wait();
  });

  ThreadPool other(2);
  const Outcome other_pool =
      update_with([&](auto run) { other.submit(run).get(); });

  for (const Outcome* o : {&busy, &same_pool, &other_pool}) {
    EXPECT_EQ(o->stats.policy_loss, plain.stats.policy_loss);
    EXPECT_EQ(o->stats.value_loss, plain.stats.value_loss);
    EXPECT_EQ(o->stats.entropy, plain.stats.entropy);
    EXPECT_EQ(o->stats.approx_kl, plain.stats.approx_kl);
    EXPECT_EQ(o->stats.clip_fraction, plain.stats.clip_fraction);
    EXPECT_EQ(o->stats.total_loss, plain.stats.total_loss);
    EXPECT_EQ(o->params, plain.params);
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
  Matrix m;
  buffer.states_matrix_into(m);
  EXPECT_DOUBLE_EQ(m(2, 0), 2.0);
  buffer.next_states_matrix_into(m);
  EXPECT_DOUBLE_EQ(m(2, 0), 3.0);
  buffer.actions_matrix_into(m);
  EXPECT_DOUBLE_EQ(m(1, 0), -1.0);
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

#include "ckpt/state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment_config.hpp"

namespace fedra::ckpt {
namespace {

Errc code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CkptError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a CkptError";
  return Errc::kIo;
}

FlEnv make_env(std::uint64_t seed = 42) {
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 400;
  cfg.seed = seed;
  FlEnvConfig env_cfg;
  env_cfg.episode_length = 15;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  return FlEnv(build_simulator(cfg), env_cfg);
}

TEST(CkptState, RngStreamContinuesBitExactly) {
  Rng a(123);
  for (int i = 0; i < 7; ++i) (void)a.gaussian();  // odd count: cache is hot

  ByteWriter w;
  save_rng(w, a);
  Rng b(999);
  load_rng(ByteReader(w.bytes()), b);

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.gaussian(), b.gaussian());
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

TEST(CkptState, RngShortPayloadIsTyped) {
  ByteWriter w;
  Rng a(1);
  save_rng(w, a);
  std::string bytes = w.bytes();
  bytes.pop_back();
  Rng b(2);
  EXPECT_EQ(code_of([&] { load_rng(ByteReader(bytes), b); }),
            Errc::kMalformed);
}

TEST(CkptState, ParamsRoundTripAndShapeCheck) {
  Rng rng(9);
  Matrix a = Matrix::random_gaussian(3, 4, rng);
  Matrix b = Matrix::random_gaussian(1, 6, rng);
  ByteWriter w;
  save_params(w, std::vector<Matrix*>{&a, &b});

  Matrix a2(3, 4), b2(1, 6);
  load_params(ByteReader(w.bytes()), {&a2, &b2});
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);

  Matrix wrong(4, 3);
  EXPECT_EQ(code_of([&] {
              load_params(ByteReader(w.bytes()), {&a2, &wrong});
            }),
            Errc::kStateMismatch);
  EXPECT_EQ(code_of([&] { load_params(ByteReader(w.bytes()), {&a2}); }),
            Errc::kStateMismatch);
}

TEST(CkptState, AdamRoundTripRestoresBiasCorrection) {
  Rng rng(11);
  Mlp net({4, 8, 2}, Activation::Tanh, rng);
  Adam opt(net, 1e-3);

  // Drive a few steps so t / m / v are all non-trivial.
  for (int s = 0; s < 5; ++s) {
    for (Matrix* g : net.grads()) {
      for (std::size_t j = 0; j < g->size(); ++j) (*g)[j] = rng.gaussian();
    }
    opt.step();
  }

  ByteWriter w;
  save_adam(w, opt);

  Rng rng2(11);
  Mlp net2({4, 8, 2}, Activation::Tanh, rng2);
  net2.set_param_values(net.param_values());
  Adam opt2(net2, 1e-3);
  load_adam(ByteReader(w.bytes()), opt2);
  EXPECT_EQ(opt2.timestep(), opt.timestep());

  // Identical gradients must now produce identical parameters: the bias
  // correction depends on t, so a lost step counter would diverge here.
  std::vector<double> grad_vals;
  for (Matrix* g : net.grads()) {
    for (std::size_t j = 0; j < g->size(); ++j) {
      (*g)[j] = rng.gaussian();
      grad_vals.push_back((*g)[j]);
    }
  }
  std::size_t k = 0;
  for (Matrix* g : net2.grads()) {
    for (std::size_t j = 0; j < g->size(); ++j) (*g)[j] = grad_vals[k++];
  }
  opt.step();
  opt2.step();
  auto p1 = net.param_values();
  auto p2 = net2.param_values();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);

  // A differently-shaped optimizer rejects the snapshot.
  Rng rng3(1);
  Mlp other({4, 6, 2}, Activation::Tanh, rng3);
  Adam opt3(other, 1e-3);
  EXPECT_EQ(code_of([&] { load_adam(ByteReader(w.bytes()), opt3); }),
            Errc::kStateMismatch);
}

TEST(CkptState, RolloutRoundTripMidFill) {
  Rng rng(13);
  RolloutBuffer buf(8);
  for (int i = 0; i < 5; ++i) {  // deliberately mid-fill
    Transition t;
    t.state = {rng.gaussian(), rng.gaussian()};
    t.next_state = {rng.gaussian(), rng.gaussian()};
    t.action_u = {rng.gaussian()};
    t.log_prob = rng.gaussian();
    t.reward = rng.gaussian();
    t.value = rng.gaussian();
    t.next_value = rng.gaussian();
    t.episode_end = (i == 4);
    buf.push(std::move(t));
  }

  ByteWriter w;
  save_rollout(w, buf);
  RolloutBuffer back(8);
  load_rollout(ByteReader(w.bytes()), back);
  ASSERT_EQ(back.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back[i].state, buf[i].state);
    EXPECT_EQ(back[i].next_state, buf[i].next_state);
    EXPECT_EQ(back[i].action_u, buf[i].action_u);
    EXPECT_EQ(back[i].log_prob, buf[i].log_prob);
    EXPECT_EQ(back[i].reward, buf[i].reward);
    EXPECT_EQ(back[i].value, buf[i].value);
    EXPECT_EQ(back[i].next_value, buf[i].next_value);
    EXPECT_EQ(back[i].episode_end, buf[i].episode_end);
  }

  RolloutBuffer wrong_capacity(16);
  EXPECT_EQ(code_of([&] {
              load_rollout(ByteReader(w.bytes()), wrong_capacity);
            }),
            Errc::kStateMismatch);
}

TEST(CkptState, EnvRoundTripContinuesIdentically) {
  FlEnv env = make_env();
  Rng rng(3);
  std::vector<double> state = env.reset(rng);
  const std::vector<double> action(env.action_dim(), 0.7);
  for (int i = 0; i < 4; ++i) (void)env.step(action);

  ByteWriter w;
  save_env(w, env);

  FlEnv fresh = make_env();
  load_env(ByteReader(w.bytes()), fresh);

  EXPECT_EQ(fresh.steps_in_episode(), env.steps_in_episode());
  EXPECT_EQ(fresh.simulator().now(), env.simulator().now());
  EXPECT_EQ(fresh.simulator().iteration(), env.simulator().iteration());
  EXPECT_EQ(fresh.observe(), env.observe());

  // The two envs must now evolve in lockstep.
  for (int i = 0; i < 6; ++i) {
    StepResult a = env.step(action);
    StepResult b = fresh.step(action);
    EXPECT_EQ(a.reward, b.reward);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.info.iteration_time, b.info.iteration_time);
    EXPECT_EQ(a.done, b.done);
  }
}

TEST(CkptState, EnvRejectsMismatchedTarget) {
  FlEnv env = make_env(42);
  Rng rng(3);
  (void)env.reset(rng);
  ByteWriter w;
  save_env(w, env);

  // Same topology, different seed -> different traces -> different
  // bandwidth reference.
  FlEnv other = make_env(43);
  EXPECT_EQ(code_of([&] { load_env(ByteReader(w.bytes()), other); }),
            Errc::kStateMismatch);
}

// The agent's checkpoint sections carry the whole model: an agent built
// from another seed acts and values bit for bit like the saved one.
TEST(Ppo, SaveLoadRoundTrip) {
  PolicyConfig pcfg;
  PpoAgent a(2, 1, pcfg, PpoConfig{}, 13);
  PpoAgent b(2, 1, pcfg, PpoConfig{}, 14);
  const std::vector<double> state{0.5, 0.5};
  EXPECT_NE(a.mean_action(state), b.mean_action(state));
  Writer out;
  save_ppo_agent(out, a);
  load_ppo_agent(Reader::from_bytes(out.encode()), b);
  EXPECT_EQ(a.mean_action(state), b.mean_action(state));
  EXPECT_EQ(b.behavior_policy().mean_action(state),
            a.behavior_policy().mean_action(state));
  EXPECT_EQ(a.value(state), b.value(state));
}

}  // namespace
}  // namespace fedra::ckpt

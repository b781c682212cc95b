#include "core/drl_controller.hpp"

#include <gtest/gtest.h>

#include "core/offline_trainer.hpp"
#include "sim/experiment_config.hpp"

namespace fedra {
namespace {

struct Fixture {
  ExperimentConfig cfg;
  FlEnvConfig env_cfg;
  double bw_ref = 0.0;
  std::unique_ptr<PpoAgent> agent;
};

Fixture make_fixture(std::uint64_t seed = 42) {
  Fixture f;
  f.cfg = testbed_config();
  f.cfg.trace_samples = 400;
  f.cfg.seed = seed;
  f.env_cfg.slot_seconds = f.cfg.slot_seconds;
  f.env_cfg.history_slots = f.cfg.history_slots;
  FlEnv env(build_simulator(f.cfg), f.env_cfg);
  f.bw_ref = env.bandwidth_ref();
  TrainerConfig tc = recommended_trainer_config(1);
  f.agent = std::make_unique<PpoAgent>(env.state_dim(), env.action_dim(),
                                       tc.policy, tc.ppo, seed);
  return f;
}

TEST(DrlController, DecideIsDeterministic) {
  auto f = make_fixture();
  DrlController c(*f.agent, f.env_cfg, f.bw_ref);
  auto sim = build_simulator(f.cfg);
  EXPECT_EQ(c.decide(sim), c.decide(sim));
}

TEST(DrlController, FrequenciesWithinDeviceCaps) {
  auto f = make_fixture(7);
  DrlController c(*f.agent, f.env_cfg, f.bw_ref);
  auto sim = build_simulator(f.cfg);
  for (int k = 0; k < 10; ++k) {
    auto freqs = c.decide(sim);
    ASSERT_EQ(freqs.size(), sim.num_devices());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      EXPECT_GT(freqs[i], 0.0);
      EXPECT_LE(freqs[i], sim.fleet().max_freq_hz(i));
    }
    sim.step(freqs, {});
  }
}

TEST(DrlController, StateMatchesEnvObservation) {
  // The controller must rebuild EXACTLY the state the env produced during
  // training — cross-check by comparing actions from both paths.
  auto f = make_fixture(9);
  FlEnv env(build_simulator(f.cfg), f.env_cfg);
  env.reset_at(123.0);
  const auto env_state = env.observe();
  const auto env_action = f.agent->mean_action(env_state);

  auto sim = build_simulator(f.cfg);
  sim.reset(123.0);
  DrlController c(*f.agent, f.env_cfg, f.bw_ref);
  auto freqs = c.decide(sim);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_NEAR(freqs[i], env_action[i] * sim.fleet().max_freq_hz(i),
                1e-9);
  }
}

TEST(DrlController, DecisionsTrackBandwidthState) {
  // Different clock positions (different bandwidth histories) should
  // generally produce different decisions for an untrained (hence
  // input-sensitive) network.
  auto f = make_fixture(11);
  DrlController c(*f.agent, f.env_cfg, f.bw_ref);
  auto sim1 = build_simulator(f.cfg);
  auto sim2 = build_simulator(f.cfg);
  sim1.reset(0.0);
  sim2.reset(200.0);
  EXPECT_NE(c.decide(sim1), c.decide(sim2));
}

TEST(DrlControllerDeathTest, BadBandwidthRefAborts) {
  auto f = make_fixture(15);
  EXPECT_DEATH(DrlController(*f.agent, f.env_cfg, 0.0), "precondition");
}

}  // namespace
}  // namespace fedra

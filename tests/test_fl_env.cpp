#include "env/fl_env.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment_config.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

FlEnv make_env(std::size_t devices = 3, std::size_t episode_length = 10,
               std::uint64_t seed = 42) {
  ExperimentConfig cfg = testbed_config();
  cfg.num_devices = devices;
  cfg.trace_pool = 0;
  cfg.trace_samples = 400;
  cfg.seed = seed;
  FlEnvConfig env_cfg;
  env_cfg.episode_length = episode_length;
  env_cfg.slot_seconds = cfg.slot_seconds;
  env_cfg.history_slots = cfg.history_slots;
  return FlEnv(build_simulator(cfg), env_cfg);
}

TEST(FlEnv, Dimensions) {
  auto env = make_env(3);
  EXPECT_EQ(env.action_dim(), 3u);
  EXPECT_EQ(env.state_dim(), 3u * 9u);  // H=8 -> H+1 slots per device
}

TEST(FlEnv, ResetProducesFullState) {
  auto env = make_env();
  Rng rng(1);
  auto s = env.reset(rng);
  ASSERT_EQ(s.size(), env.state_dim());
  for (double v : s) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);   // bandwidths are positive
    EXPECT_LE(v, 1.01);  // scaled by the max bandwidth
  }
}

TEST(FlEnv, ResetAtIsDeterministic) {
  auto env = make_env();
  auto s1 = env.reset_at(123.0);
  auto s2 = env.reset_at(123.0);
  EXPECT_EQ(s1, s2);
}

TEST(FlEnv, StateReflectsSlotHistoryOrder) {
  // On a known trace the state must be [slot(t), slot(t)-1, ...] per
  // device, most recent first, each scaled by the trace maximum.
  std::vector<double> samples;
  for (int j = 0; j < 100; ++j) samples.push_back(100.0 + j);
  BandwidthTrace trace(samples, 1.0);
  DeviceProfile dev;
  FlSimulator sim({dev}, {trace}, CostParams{});
  FlEnvConfig cfg;
  cfg.slot_seconds = 10.0;
  cfg.history_slots = 2;
  FlEnv env(std::move(sim), cfg);
  const double ref = trace.max_bandwidth();
  EXPECT_EQ(env.bandwidth_ref(), ref);
  auto s = env.reset_at(35.0);  // slot 3
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], trace.slot_average(3, 10.0) / ref);
  EXPECT_DOUBLE_EQ(s[1], trace.slot_average(2, 10.0) / ref);
  EXPECT_DOUBLE_EQ(s[2], trace.slot_average(1, 10.0) / ref);
}

TEST(FlEnv, StepRewardMatchesScaledCost) {
  auto env = make_env();
  env.reset_at(0.0);
  auto r = env.step({1.0, 1.0, 1.0});
  EXPECT_NEAR(r.reward, -r.info.cost * env.config().reward_scale, 1e-12);
  EXPECT_EQ(r.state.size(), env.state_dim());
  EXPECT_FALSE(r.done);
}

TEST(FlEnv, DoneAfterEpisodeLength) {
  auto env = make_env(2, 4);
  Rng rng(2);
  env.reset(rng);
  for (int k = 0; k < 3; ++k) {
    auto r = env.step({0.5, 0.5});
    EXPECT_FALSE(r.done);
  }
  auto last = env.step({0.5, 0.5});
  EXPECT_TRUE(last.done);
  // Reset starts a fresh episode.
  env.reset(rng);
  EXPECT_FALSE(env.step({0.5, 0.5}).done);
}

TEST(FlEnv, ActionFractionMapsToFrequency) {
  auto env = make_env();
  env.reset_at(0.0);
  const auto caps = env.max_freqs();
  auto r = env.step({0.5, 1.0, 0.25});
  EXPECT_NEAR(r.info.devices[0].freq_hz, 0.5 * caps[0], 1e-6);
  EXPECT_NEAR(r.info.devices[1].freq_hz, caps[1], 1e-6);
  EXPECT_NEAR(r.info.devices[2].freq_hz, 0.25 * caps[2], 1e-6);
}

TEST(FlEnv, TimeAdvancesAcrossSteps) {
  auto env = make_env();
  env.reset_at(5.0);
  const double t0 = env.simulator().now();
  auto r = env.step({1.0, 1.0, 1.0});
  EXPECT_NEAR(env.simulator().now(), t0 + r.info.iteration_time, 1e-9);
}

TEST(FlEnv, LowerFrequenciesCostLessEnergy) {
  auto env1 = make_env(3, 10, 7);
  auto env2 = make_env(3, 10, 7);
  env1.reset_at(0.0);
  env2.reset_at(0.0);
  auto full = env1.step({1.0, 1.0, 1.0});
  auto slow = env2.step({0.3, 0.3, 0.3});
  EXPECT_LT(slow.info.total_compute_energy, full.info.total_compute_energy);
  EXPECT_GE(slow.info.iteration_time, full.info.iteration_time);
}

TEST(FlEnv, RandomResetSpansTracePhase) {
  auto env = make_env();
  Rng rng(3);
  // Different resets should (with overwhelming probability) see different
  // bandwidth histories.
  auto s1 = env.reset(rng);
  auto s2 = env.reset(rng);
  EXPECT_NE(s1, s2);
}

TEST(FlEnvDeathTest, WrongActionSizeAborts) {
  auto env = make_env(2);
  env.reset_at(0.0);
  EXPECT_DEATH(env.step({1.0}), "precondition");
}

}  // namespace
}  // namespace fedra

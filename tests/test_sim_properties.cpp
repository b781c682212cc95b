// Property-based sweeps over random scenarios and random actions: the
// simulator's accounting identities must hold for EVERY input, not just
// the hand-computed cases in test_simulator.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sched/baselines.hpp"
#include "sim/experiment_config.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

class SimProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  FlSimulator make_sim(std::size_t devices = 4) {
    ExperimentConfig cfg = testbed_config();
    cfg.num_devices = devices;
    cfg.trace_pool = 0;
    cfg.trace_samples = 500;
    cfg.seed = GetParam();
    return build_simulator(cfg);
  }

  std::vector<double> random_freqs(const SimulatorBase& sim, Rng& rng) {
    std::vector<double> freqs;
    for (std::size_t i = 0; i < sim.num_devices(); ++i) {
      // Deliberately out-of-range values included: negatives, zeros, and
      // absurdly high frequencies must all be handled by clamping.
      freqs.push_back(rng.uniform(-1e9, 3.0 * sim.fleet().max_freq_hz(i)));
    }
    return freqs;
  }
};

TEST_P(SimProperties, AccountingIdentitiesUnderRandomActions) {
  auto sim = make_sim();
  Rng rng(GetParam() ^ 0xabcdULL);
  double expected_now = sim.now();
  for (int k = 0; k < 25; ++k) {
    auto r = sim.step(random_freqs(sim, rng), {});
    // Constraint (11): the clock advances by exactly T^k.
    EXPECT_DOUBLE_EQ(r.start_time, expected_now);
    expected_now += r.iteration_time;
    EXPECT_DOUBLE_EQ(sim.now(), expected_now);

    // Eq. (5): makespan is the max device time; idle fills the gap.
    double max_time = 0.0;
    double energy = 0.0;
    double compute_energy = 0.0;
    for (const auto& d : r.devices) {
      EXPECT_TRUE(d.participated);
      EXPECT_GE(d.freq_hz, 0.0);
      EXPECT_NEAR(d.total_time, d.compute_time + d.comm_time, 1e-9);
      EXPECT_NEAR(d.idle_time, r.iteration_time - d.total_time, 1e-9);
      EXPECT_GE(d.idle_time, -1e-9);
      EXPECT_NEAR(d.energy, d.compute_energy + d.comm_energy, 1e-9);
      max_time = std::max(max_time, d.total_time);
      energy += d.energy;
      compute_energy += d.compute_energy;
    }
    EXPECT_NEAR(r.iteration_time, max_time, 1e-9);
    EXPECT_NEAR(r.total_energy, energy, 1e-9);
    EXPECT_NEAR(r.total_compute_energy, compute_energy, 1e-9);
    // Eq. (9)/(13): cost and reward are exact mirrors.
    EXPECT_NEAR(r.cost,
                r.iteration_time + sim.params().lambda * r.total_energy,
                1e-9);
    EXPECT_NEAR(r.reward, -r.cost, 1e-12);
  }
}

TEST_P(SimProperties, FrequenciesAlwaysClamped) {
  auto sim = make_sim();
  Rng rng(GetParam() ^ 0x1234ULL);
  for (int k = 0; k < 10; ++k) {
    auto r = sim.step(random_freqs(sim, rng), {});
    for (std::size_t i = 0; i < r.devices.size(); ++i) {
      const double max_hz = sim.fleet().max_freq_hz(i);
      EXPECT_GE(r.devices[i].freq_hz,
                FlSimulator::kMinFreqFraction * max_hz - 1e-9);
      EXPECT_LE(r.devices[i].freq_hz, max_hz + 1e-9);
    }
  }
}

TEST_P(SimProperties, PreviewMatchesStepFromSameState) {
  auto sim = make_sim();
  Rng rng(GetParam() ^ 0x5678ULL);
  auto freqs = random_freqs(sim, rng);
  auto previewed = sim.preview(freqs, StepOptions{});
  auto stepped = sim.step(freqs, {});
  EXPECT_DOUBLE_EQ(previewed.cost, stepped.cost);
  EXPECT_DOUBLE_EQ(previewed.iteration_time, stepped.iteration_time);
  for (std::size_t i = 0; i < previewed.devices.size(); ++i) {
    EXPECT_DOUBLE_EQ(previewed.devices[i].comm_time,
                     stepped.devices[i].comm_time);
  }
}

TEST_P(SimProperties, OracleNearlyLowerBoundsRandomActions) {
  // The oracle searches deadline-matched assignments, which is the optimal
  // family when comm energy is start-time independent; realized upload
  // windows can let an arbitrary assignment shave a few percent, so the
  // property is a 5 % bound rather than strict dominance.
  auto sim = make_sim();
  OracleController oracle;
  const double oracle_cost = sim.preview(oracle.decide(sim), StepOptions{}).cost;
  Rng rng(GetParam() ^ 0x9999ULL);
  for (int trial = 0; trial < 15; ++trial) {
    const double random_cost =
        sim.preview(random_freqs(sim, rng), StepOptions{}).cost;
    EXPECT_LE(oracle_cost, random_cost * 1.05);
  }
}

TEST_P(SimProperties, RealizedBandwidthConsistentWithEq3) {
  // B_i^k * t_com == xi for every device in every iteration.
  auto sim = make_sim();
  Rng rng(GetParam() ^ 0x4242ULL);
  for (int k = 0; k < 10; ++k) {
    auto r = sim.step(random_freqs(sim, rng), {});
    for (const auto& d : r.devices) {
      if (d.comm_time <= 0.0) continue;
      EXPECT_NEAR(d.avg_bandwidth * d.comm_time, sim.params().model_bytes,
                  sim.params().model_bytes * 1e-6);
    }
  }
}

TEST_P(SimProperties, PartialParticipationConsistency) {
  auto sim = make_sim(5);
  Rng rng(GetParam() ^ 0x7777ULL);
  for (int k = 0; k < 10; ++k) {
    auto freqs = random_freqs(sim, rng);
    std::vector<bool> mask(5);
    bool any = false;
    for (auto&& m : mask) {
      m = rng.bernoulli(0.6);
      any = any || m;
    }
    if (!any) mask[0] = true;
    auto r = sim.step(freqs, StepOptions::with_participants(mask));
    double max_time = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
      if (mask[i]) {
        EXPECT_TRUE(r.devices[i].participated);
        max_time = std::max(max_time, r.devices[i].total_time);
      } else {
        EXPECT_FALSE(r.devices[i].participated);
        EXPECT_DOUBLE_EQ(r.devices[i].energy, 0.0);
        EXPECT_DOUBLE_EQ(r.devices[i].total_time, 0.0);
      }
    }
    EXPECT_NEAR(r.iteration_time, max_time, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperties,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 31337u,
                                           271828u, 314159u));

// Rounds, out of `rounds` per seed over five seeds, in which heuristic,
// static or full speed is cheaper than the oracle by more than 1e-9
// relative. The heuristic drives the simulator from state to state, and
// every controller is previewed from the same state. The oracle is greedy
// per round and searches deadline-matched assignments only, so a
// baseline can undercut it; the count must not grow.
std::size_t rounds_a_baseline_beats_oracle(ExperimentConfig cfg,
                                           std::size_t rounds) {
  std::size_t beaten = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    cfg.seed = seed;
    auto sim = build_simulator(cfg);
    HeuristicController heuristic(sim);
    Rng rng(seed ^ 0x5eedULL);
    StaticController fixed(sim, 30, rng);
    FullSpeedController full;
    OracleController oracle;
    StepOptions summary;
    summary.outcomes = OutcomeLayout::kSummary;
    for (std::size_t k = 0; k < rounds; ++k) {
      const auto heuristic_freqs = heuristic.decide(sim);
      const double oracle_cost = sim.preview(oracle.decide(sim), summary).cost;
      const double best_baseline =
          std::min({sim.preview(heuristic_freqs, summary).cost,
                    sim.preview(fixed.decide(sim), summary).cost,
                    sim.preview(full.decide(sim), summary).cost});
      if (best_baseline < oracle_cost * (1.0 - 1e-9)) ++beaten;
      heuristic.observe(sim.step(heuristic_freqs, {}));
    }
  }
  return beaten;
}

TEST(OracleHonesty, BaselinesRarelyUndercutOracleOnTestbed) {
  // Each bound is the count of the oracle that bisected every device's
  // frequency to 1 kHz, before the closed-form deadline inversion; the
  // closed form reaches the same count on both configurations.
  const std::size_t beaten = rounds_a_baseline_beats_oracle(testbed_config(),
                                                            200);
  RecordProperty("rounds_beaten", static_cast<int>(beaten));
  EXPECT_LE(beaten, 125u) << beaten << " of 1000 rounds";
}

TEST(OracleHonesty, BaselinesRarelyUndercutOracleAtScale) {
  const std::size_t beaten = rounds_a_baseline_beats_oracle(scale_config(),
                                                            200);
  RecordProperty("rounds_beaten", static_cast<int>(beaten));
  EXPECT_LE(beaten, 164u) << beaten << " of 1000 rounds";
}

}  // namespace
}  // namespace fedra

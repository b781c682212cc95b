#include "sched/baselines.hpp"

#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "sim/experiment_config.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace fedra {
namespace {

FlSimulator make_sim(std::uint64_t seed = 42, std::size_t devices = 3) {
  ExperimentConfig cfg = testbed_config();
  cfg.num_devices = devices;
  cfg.trace_pool = 0;
  cfg.trace_samples = 600;
  cfg.seed = seed;
  return build_simulator(cfg);
}

TEST(FullSpeed, AlwaysAtCap) {
  auto sim = make_sim();
  FullSpeedController c;
  auto freqs = c.decide(sim);
  ASSERT_EQ(freqs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(freqs[i], sim.fleet().max_freq_hz(i));
  }
}

TEST(Static, FrequenciesFixedAcrossIterations) {
  auto sim = make_sim();
  Rng rng(1);
  StaticController c(sim, 20, rng);
  auto f1 = c.decide(sim);
  sim.step(f1, {});
  auto f2 = c.decide(sim);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, c.fixed_freqs());
}

TEST(Static, FrequenciesWithinDeviceBounds) {
  auto sim = make_sim(7);
  Rng rng(2);
  StaticController c(sim, 10, rng);
  const auto freqs = c.decide(sim);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GT(freqs[i], 0.0);
    EXPECT_LE(freqs[i], sim.fleet().max_freq_hz(i));
  }
}

TEST(Heuristic, FirstDecisionUsesMeanBandwidth) {
  auto sim = make_sim();
  HeuristicController c(sim);
  std::vector<double> means;
  for (std::size_t i = 0; i < sim.num_devices(); ++i)
    means.push_back(sim.trace(i).mean_bandwidth());
  auto expected = solve_with_bandwidths(sim.fleet(), means, sim.params(),
                                        FlSimulator::kMinFreqFraction)
                      .freqs_hz;
  EXPECT_EQ(c.decide(sim), expected);
}

TEST(Heuristic, UsesLastIterationBandwidth) {
  auto sim = make_sim();
  HeuristicController c(sim);
  auto r = sim.step(c.decide(sim), {});
  c.observe(r);
  // After observing, the decision must equal solving with the realized
  // bandwidths of the previous iteration ([3]'s rule).
  std::vector<double> realized;
  for (const auto& d : r.devices) realized.push_back(d.avg_bandwidth);
  auto expected = solve_with_bandwidths(sim.fleet(), realized, sim.params(),
                                        FlSimulator::kMinFreqFraction)
                      .freqs_hz;
  EXPECT_EQ(c.decide(sim), expected);
}

TEST(Heuristic, AdaptsWhenBandwidthChanges) {
  // An ASYMMETRIC bandwidth change must change the heuristic's decisions.
  // (A uniform shift can legitimately leave the assignment unchanged: all
  // comm-time estimates move together, so per-device compute budgets
  // T - t_com stay identical.)
  auto sim = make_sim();
  HeuristicController c(sim);
  IterationResult fake;
  fake.devices.resize(3);
  fake.devices[0].avg_bandwidth = 0.5e6;  // device 0 in a poor phase
  fake.devices[1].avg_bandwidth = 8e6;
  fake.devices[2].avg_bandwidth = 8e6;
  c.observe(fake);
  auto before = c.decide(sim);
  fake.devices[0].avg_bandwidth = 8e6;    // device 0 recovered
  fake.devices[1].avg_bandwidth = 0.5e6;  // device 1 degraded
  c.observe(fake);
  auto after = c.decide(sim);
  EXPECT_NE(before, after);
}

TEST(Oracle, FrequenciesWithinBounds) {
  auto sim = make_sim(3);
  OracleController oracle;
  auto freqs = oracle.decide(sim);
  ASSERT_EQ(freqs.size(), sim.num_devices());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GE(freqs[i],
              FlSimulator::kMinFreqFraction * sim.fleet().max_freq_hz(i));
    EXPECT_LE(freqs[i], sim.fleet().max_freq_hz(i));
  }
}

TEST(Oracle, NeverWorseThanFullSpeedOnFirstIteration) {
  // The oracle optimizes the true realized per-iteration cost, so from an
  // identical start state it cannot lose to any fixed assignment.
  for (std::uint64_t seed : {1u, 2u, 3u, 10u, 99u}) {
    auto sim = make_sim(seed);
    OracleController oracle;
    FullSpeedController full;
    const auto oracle_cost = sim.preview(oracle.decide(sim), StepOptions{}).cost;
    const auto full_cost = sim.preview(full.decide(sim), StepOptions{}).cost;
    EXPECT_LE(oracle_cost, full_cost * (1.0 + 1e-9)) << "seed " << seed;
  }
}

TEST(Oracle, NeverWorseThanStaticOnFirstIteration) {
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    auto sim = make_sim(seed);
    OracleController oracle;
    Rng rng(seed);
    StaticController st(sim, 30, rng);
    const auto oracle_cost = sim.preview(oracle.decide(sim), StepOptions{}).cost;
    const auto static_cost = sim.preview(st.decide(sim), StepOptions{}).cost;
    EXPECT_LE(oracle_cost, static_cost * (1.0 + 1e-9)) << "seed " << seed;
  }
}

TEST(Oracle, EachDeviceIsMinimalForTheDeadline) {
  // Across the oracle's deadline range, from several clock positions, each
  // device either runs flat out, or meets the deadline T and is at the
  // frequency floor or tight against T: 1e-6 less frequency misses T.
  auto sim = make_sim(21);
  const auto& params = sim.params();
  OracleController oracle;
  FullSpeedController full;
  for (int round = 0; round < 4; ++round) {
    const double now = sim.now();
    for (double deadline = 0.5; deadline < 600.0; deadline *= 1.05) {
      const auto freqs = oracle.freqs_for_true_deadline(sim, deadline);
      ASSERT_EQ(freqs.size(), sim.num_devices());
      for (std::size_t i = 0; i < freqs.size(); ++i) {
        const DeviceProfile d = sim.fleet().device(i);
        const auto completion = [&](double f) {
          const double cmp = d.compute_time(f, params.tau);
          return cmp +
                 sim.trace(i).upload_duration(now + cmp, params.model_bytes);
        };
        if (freqs[i] == d.max_freq_hz) continue;
        const double floor_hz = FlSimulator::kMinFreqFraction * d.max_freq_hz;
        EXPECT_GE(freqs[i], floor_hz);
        EXPECT_LT(freqs[i], d.max_freq_hz);
        EXPECT_LE(completion(freqs[i]), deadline * (1.0 + 1e-9))
            << "device " << i << " deadline " << deadline;
        if (freqs[i] > floor_hz) {
          EXPECT_GT(completion(freqs[i] * (1.0 - 1e-6)), deadline)
              << "device " << i << " deadline " << deadline;
        }
      }
    }
    sim.step(full.decide(sim), {});
  }
}

TEST(Baselines, RankingOverManyIterationsIsSane) {
  // Over a long run, clairvoyance can only help: oracle <= heuristic and
  // oracle <= static on average. (Greedy per-iteration optimality does not
  // guarantee per-run dominance, but with 150 iterations the gap is far
  // beyond noise.)
  auto sim = make_sim(11);
  OracleController oracle;
  HeuristicController heuristic(sim);
  Rng rng(12);
  StaticController st(sim, 30, rng);
  FullSpeedController full;

  const std::size_t iters = 150;
  auto s_oracle = run_controller(sim, oracle, iters);
  auto s_heur = run_controller(sim, heuristic, iters);
  auto s_static = run_controller(sim, st, iters);
  auto s_full = run_controller(sim, full, iters);

  EXPECT_LT(s_oracle.avg_cost(), s_heur.avg_cost());
  EXPECT_LT(s_oracle.avg_cost(), s_static.avg_cost());
  EXPECT_LT(s_oracle.avg_cost(), s_full.avg_cost());
  // The estimate-driven policies pay a dynamics penalty but must stay in
  // the no-DVFS policy's league on cost while saving real energy.
  EXPECT_LT(s_heur.avg_cost(), 1.3 * s_full.avg_cost());
  EXPECT_LT(s_heur.avg_compute_energy(), s_full.avg_compute_energy());
}

TEST(Baselines, FullSpeedHasHighestComputeEnergy) {
  auto sim = make_sim(13);
  FullSpeedController full;
  HeuristicController heuristic(sim);
  auto s_full = run_controller(sim, full, 80);
  auto s_heur = run_controller(sim, heuristic, 80);
  EXPECT_GT(s_full.avg_compute_energy(), s_heur.avg_compute_energy());
  // ...but is the fastest per iteration.
  EXPECT_LE(s_full.avg_time(), s_heur.avg_time() * (1.0 + 1e-9));
}

}  // namespace
}  // namespace fedra
